"""Finite-graph bounds and parsing, checked against brute-force oracles."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoffman import (
    BoundInapplicableError,
    BoundReport,
    Graph,
    NoNegativeSpectrumError,
    SpectralRange,
    VacuousBoundError,
    adjacency_matrix,
    alpha_ratio_ub,
    bounds,
    chi_frac_lb,
    chi_lb,
    parse_graph,
    spectral_range,
)

import hoffman.graphs
import oracles
from oracles import brute_force_alpha, brute_force_chi

SQRT5 = math.sqrt(5.0)


def cycle(n):
    return Graph(n, oracles.cycle_edges(n))


def petersen():
    return Graph(10, oracles.petersen_edges())


# ---------------------------------------------------------------- parsing

def test_parse_plain_edge_list():
    g = parse_graph("# comment\n0 1\n1 2\n\n2 3  # trailing\n")
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_parse_dimacs_header_is_one_indexed():
    g = parse_graph("c petersen-ish header\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_rejects_plain_pairs_in_dimacs_input():
    # 0-indexed pairs must not mix with 1-indexed "e" lines, on either side
    for text in [
        "0 1\n1 2\n2 0\np edge 4 1\ne 3 4\n",
        "p edge 4 1\ne 3 4\n0 1\n",
    ]:
        with pytest.raises(ValueError, match="in DIMACS input"):
            parse_graph(text)


def test_parse_rejects_garbage():
    for text in ["0\n", "0 1 2\n", "a b\n", "p edge 2 1\ne 1 3\n", "0 0\n"]:
        with pytest.raises(ValueError):
            parse_graph(text)


# The differential test's texts: row lines, lines the parser skips, line
# breaks, and malformed lines.  Every entry of _MALFORMED appears in some
# text; each is bad where it stands or out of place in some texts.
_BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\v", "\f", "\x85", "\u2028"]
_SKIPPED = ["", "   ", "c a comment", "c", "c\tx", "c#x", "# hash", "\t# tab", "\xa0# nbsp"]
_HEADERS = ["p edge 9 4", "p edge 9", "p\tedge 9 4", " p edge 9 4", "p edge +9 4  # header"]
_MALFORMED = [
    "0", "0 1 2", "a b", "1e1 2", "1.5 2", "1_0 2", "99999999999999999999 1", "x 1 2",
    "e1 2", "cx", "\u00e9 1", "\u0663 1", "\u200b0 1", "\ud800 1", "0 0", "-1 2",
    "e", "e # no endpoints", "e\t", "e 1", "e 1 2 3", "e \u0661 2", "e 1 x", " e\t# none",
    "p", "p edge", "p node 3 1", "p edge abc 1", "p edge 3 x", "p edge -2 0",
    "p edge 3 1 9", "p edge \u0663 1", "p edge 9 4", "e 1 2", "0 1",
    "p edge " + "9" * 5000 + " 1",  # more digits than int() converts
    "0\x1f1", "0\xa01\xa02", "e 1\u20032", "e 1\u3000x", "-9223372036854775809 1",
]


# planted in clean-row texts, whose rows are unsigned "u v" pairs (with "e "
# in DIMACS texts), at the edges of the reader's clean-row pass and of its
# checked one: run counts that balance over two lines, values around int64's
# and uint64's largest and int64's smallest, 19 digits, leading zeros, tabs
# and the other blanks, lines between rows that are blank, white or a
# comment, signs and a trailing comment.  Every entry appears in some text,
# in a plain or a DIMACS one.
_CLEAN_EDGES = [
    ["{e}1 2 3", "{e}4"], ["{e}4", "{e}1 2 3"], ["{e}1 2 3 4", "{e}"],
    ["{e}9223372036854775807 1"], ["{e}9223372036854775808 1"],
    ["{e}18446744073709551615 1"], ["{e}99999999999999999999 1"],
    ["{e}1000000000000000000 2"], ["{e}000000000000000000000003 0002"],
    ["{e}1\t2", "\t{e}3 \t4\t"], [""], ["  \t "], ["{c} a comment"],
    ["{e}5 6 # trailing"], ["{e}+5 6"], ["{e}7"], ["\xa0{e}1 2"], ["{e}1 2\x00"],
    ["{e}1\x1f2"], ["{e}1\xa02"], ["{e}1\u20032"], ["{e}1\u30002"], ["{e}-0 +3"],
    ["{e}-9223372036854775808 1"], ["{e}-9223372036854775809 1"],
]
_CLEAN_BREAKS = ["\n"] * 12 + ["\r\n", "\v", "\f"]


def _clean_rows(rng, i, dimacs):
    """Clean rows; an odd i plants one _CLEAN_EDGES entry among them or after the last."""
    e = "e " if dimacs else ""
    lines = [e + "{} {}".format(*_endpoints(rng, int(dimacs))) for _ in range(rng.randrange(1, 12))]
    if i % 2:
        at = len(lines) if rng.random() < 0.3 else rng.randrange(len(lines) + 1)
        planted = _CLEAN_EDGES[i // 2 % len(_CLEAN_EDGES)]
        lines[at:at] = [line.format(e=e, c="c" if dimacs else "#") for line in planted]
    head = ["c a DIMACS text", "p edge 9 4"] if dimacs else rng.choice([[], ["# plain"]])
    text = "".join(line + rng.choice(_CLEAN_BREAKS) for line in head + lines)
    return text[:-1] if rng.random() < 0.2 else text


def _endpoints(rng, first):
    """Two distinct vertices among first, ..., first + 8."""
    u = rng.randrange(first, first + 9)
    return u, first + (u - first + rng.randrange(1, 9)) % 9


def _pair_line(rng, first):
    u, v = _endpoints(rng, first)
    sign = lambda x: rng.choice(["", "", "+"]) + str(x)
    lead = rng.choice(["", "", "", " ", "\t"])
    tail = rng.choice(["", "", "", " # trailing", "#", "  "])
    return lead + sign(u) + rng.choice([" ", "\t", "  ", " \t"]) + sign(v) + tail


def _parse_case(rng, i):
    """One text: plain (0-indexed pairs), DIMACS, or pairs around a header."""
    style = rng.choice(["plain", "plain", "dimacs", "dimacs", "mixed", "clean", "clean"])
    if style == "clean":
        return _clean_rows(rng, i, rng.random() < 0.5)
    rows = rng.randrange(0, 12)
    if style == "dimacs":
        e = lambda: rng.choice(["e ", "e\t", "e \t", " e "]) + _pair_line(rng, 1).lstrip()
        lines = [rng.choice(_SKIPPED) for _ in range(rng.randrange(0, 3))]
        lines += [rng.choice(_HEADERS)] + [e() for _ in range(rows)]
    else:
        lines = [_pair_line(rng, 0) for _ in range(rows)]
        if style == "mixed":  # before, between or after the pairs
            lines.insert(rng.randrange(rows + 1), rng.choice(_HEADERS))
    for _ in range(rng.randrange(0, 4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_SKIPPED))
    if i % 2:
        lines.insert(rng.randrange(len(lines) + 1), _MALFORMED[i // 2 % len(_MALFORMED)])
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    return text[:-1] if text and rng.random() < 0.2 else text


def _reference_graph(text):
    pairs, n = oracles.edge_text_pairs(text)
    if n is not None:
        pairs = pairs - 1
    else:
        n = int(pairs.max()) + 1 if len(pairs) else 0
    return Graph(max(n, 0), pairs)


def _outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as exc:
        return "refused", str(exc)
    return g.n, g.edges.tolist()


def test_parse_matches_the_line_by_line_reference():
    # the reference walks text.splitlines() one line at a time and names
    # the first bad line; parse_graph must read the same graph or refuse
    # with the same message
    rng = random.Random(19)
    texts = [_parse_case(rng, i) for i in range(700)]
    outcomes = [_outcome(parse_graph, text) for text in texts]
    for text, got in zip(texts, outcomes):
        assert got == _outcome(_reference_graph, text), repr(text)
    parsed = sum(got[0] != "refused" for got in outcomes)
    assert 200 < parsed < 600, parsed


# the drawn texts' characters: digits, signs, the comment and DIMACS letters,
# blanks of one to three UTF-8 bytes, every line break of str.splitlines,
# and a Latin letter, an Arabic-Indic digit, NUL and two format characters
# (U+1BCA0 and the tag U+E0001), which no row may hold
_TEXT_ALPHABET = (
    "0123456789+-#ecp \t\x1f\xa0\u1680\u2003\u202f\u205f\u3000"
    "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\u00e9\u0661\x00\U0001bca0\U000e0001"
)
_TEXT_PIECES = st.sampled_from(["0 1\n", "e 2 3\n", "p edge 9 4\n", "c x\n"]) | st.text(
    _TEXT_ALPHABET, max_size=12
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_TEXT_PIECES, max_size=8))
@example(["-0", "e 2 3\n"])  # a sign in a row refused for another byte
def test_parse_matches_the_reference_on_drawn_texts(pieces):
    # whole rows and headers, glued to drawn characters
    text = "".join(pieces)
    assert _outcome(parse_graph, text) == _outcome(_reference_graph, text)


# characters of two, three and four UTF-8 bytes and a lone surrogate, in
# comments, and two wide blanks, between a row's tokens
_WIDE = ["\u00e9", "\U0001f600", "\ud800"]
_ROW_BLANKS = [" "] * 4 + ["\u3000", "\xa0"]


def _refused_text(rng, dimacs: bool) -> str:
    """A text with wide characters and mixed line breaks before one bad row, and rows after it."""

    def row():
        u, v = rng.randrange(1, 60), rng.randrange(1, 60)
        line = f"{'e ' if dimacs else ''}{u}{rng.choice(_ROW_BLANKS)}{v}"
        return line if rng.random() < 0.7 else f"{line} # {comment()}"

    def comment():
        return "".join(rng.choice(_WIDE) for _ in range(rng.randrange(1, 4)))

    lines = ["p edge 60 9"] if dimacs else []
    for _ in range(rng.randrange(0, 8)):
        lines.append(row() if rng.random() < 0.7 else f"{'c' if dimacs else '#'} {comment()}")
    bad = rng.choice(["2 x", "1 2 3", "9" * 20 + " 1", "1\u00e9 2"])
    lines += [("e " if dimacs else "") + bad] + [row() for _ in range(rng.randrange(0, 3))]
    breaks = ["\r\n", "\r\n", "\r", "\v", "\x85", "\n"]
    return "".join(line + rng.choice(breaks) for line in lines)


def test_refusal_names_the_line_the_whole_text_splits_to():
    # _edge_pairs splits only the text up to the bad line's break, which is
    # at most its byte offset plus the number of "\r\n" into the text: each
    # character takes one to four bytes (a lone surrogate three), and each
    # "\r\n" is one break.  The named line is the one text.splitlines() has
    rng = random.Random(108)
    for i in range(1000):
        text = _refused_text(rng, dimacs=bool(i % 2))
        got = _outcome(parse_graph, text)
        assert got[0] == "refused" and got == _outcome(_reference_graph, text), repr(text)


def test_line_bytes_blanks_what_str_isspace_accepts():
    # a line break becomes b"\n" and every other blank b" ", so a row's
    # tokens are split on b" " alone
    for c in map(chr, range(0x110000)):
        if c.isspace():
            blank = b"\n" if len(f"1{c}2".splitlines()) == 2 else b" "
            buf, _ = hoffman.graphs._line_bytes(f"1{c}2")
            assert buf == b"1" + blank + b"2\n", hex(ord(c))


@pytest.mark.parametrize("dimacs", [False, True])
def test_parse_never_calls_loadtxt(monkeypatch, dimacs):
    # benchmark-shaped text (a comment, and for DIMACS a header, above the
    # rows), the same rows with one sign or one trailing comment, and a
    # text refused for a bad row halfway: one reader takes them all
    rng = np.random.default_rng(41)
    edges = rng.integers(0, 800, size=(4000, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    if dimacs:
        head = f"c seeded benchmark graph\np edge 800 {len(edges)}\n"
        rows = [f"e {u + 1} {v + 1}" for u, v in edges.tolist()]
    else:
        head = "# seeded benchmark graph\n"
        rows = [f"{u} {v}" for u, v in edges.tolist()]
    expected = Graph(800 if dimacs else int(edges.max()) + 1, edges)

    def refused(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refused)
    signed = rows[:7] + [rows[7].replace(" ", " +", 1)] + rows[8:]
    commented = rows[:-1] + [rows[-1] + " # c"]
    for lines in [rows, signed, commented]:
        g = parse_graph(head + "\n".join(lines) + "\n")
        assert g.n == expected.n and np.array_equal(g.edges, expected.edges)
    bad = rows[:2000] + [rows[2000] + " 7"] + rows[2001:]
    refusal = "malformed edge line" if dimacs else "expected 'u v' pair"
    with pytest.raises(ValueError, match=refusal):
        parse_graph(head + "\n".join(bad) + "\n")


def _python_calls(parse, text):
    """How many Python-level calls parse(text) makes, as sys.setprofile sees them."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        parse(text)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("dimacs", [False, True])
def test_parse_makes_no_python_call_per_line(dimacs):
    # 97 vertices, k edge lines (with repeats); a header and a comment line
    # are read the same way at every size
    def text(k):
        rows = [(i % 97, (i % 97 + 1 + i // 97 % 96) % 97) for i in range(k)]
        if dimacs:
            return f"c k = {k}\np edge 97 {k}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in rows)
        return f"# k = {k}\n" + "".join(f"{u} {v}\n" for u, v in rows)

    parse_graph(text(10))  # the first call fills caches once per process
    assert _python_calls(parse_graph, text(10)) == _python_calls(parse_graph, text(10_000))


def test_graph_edges_match_the_set_of_sorted_pairs():
    # reference: the normalisation as a Python set of (min, max) tuples
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 40, size=(300, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    expected = sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist()})
    as_tuples = [tuple(p) for p in pairs.tolist()]
    for edges in [pairs, as_tuples, frozenset(as_tuples), iter(as_tuples)]:
        g = Graph(40, edges)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(expected), 2)
        assert list(map(tuple, g.edges.tolist())) == expected
        assert not g.edges.flags.writeable
    assert Graph(3, []).edges.shape == (0, 2)
    for bad in [[(0, 1, 2)], [(0, 2**70)], [(0, 2**31)]]:
        with pytest.raises(ValueError):
            Graph(2**40, bad)


def test_graph_validates_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1, [])


def test_graph_refuses_non_integral_vertex_count():
    # refused, not truncated: Graph(2.7, ...) was read as n = 2, True as 1
    for n in (2.7, 3.0, True, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Graph(n, [(0, 1)])
    assert Graph(np.int64(3), [(0, 1)]).n == 3


# -------------------------------------------------------------- adjacency

def test_adjacency_examples():
    assert not adjacency_matrix(Graph(3, frozenset())).any()
    single = adjacency_matrix(Graph(2, [(0, 1)]))
    assert np.array_equal(single, [[0.0, 1.0], [1.0, 0.0]])
    c5 = adjacency_matrix(cycle(5))
    assert np.array_equal(c5[0], [0.0, 1.0, 0.0, 0.0, 1.0])


def test_adjacency_matrix_is_built_once_without_temporaries():
    # the dense matrix is returned as built: no copy and no float a - a.T for
    # a symmetry check, so the peak is one n x n array
    n = 400
    g = Graph(n, [(i, (i + s) % n) for i in range(n) for s in (1, 7, 30)])
    tracemalloc.start()
    try:
        a = adjacency_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8
    assert a.shape == (n, n) and a.dtype == np.float64 and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 1] = 2.0
    assert np.array_equal(a, a.T)


# -------------------------------------------------------------- the range

def _random_graph(rng, n, p):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_range_of_c5_matches_closed_form():
    want = oracles.cycle_spectrum(5)
    rng = spectral_range(cycle(5))
    assert abs(rng.m - want[-1]) < 1e-10 and abs(rng.M - want[0]) < 1e-10
    assert abs(rng.m - (-1.6180339887498949)) < 1e-10 and abs(rng.M - 2.0) < 1e-10


def test_range_r_and_eps_have_the_bits_of_the_dense_row_sums():
    # spectral_range takes R and eps from the edge list's degree counts; the
    # dense 0/1 row sums are the same integers, so every bit agrees
    rng = np.random.default_rng(7)
    for n, p in [(1, 0.0), (2, 1.0), (9, 0.3), (60, 0.1), (250, 0.04), (400, 0.5)]:
        active = n - n // 5  # the last fifth of the vertices stays isolated
        iu, ju = np.triu_indices(active, 1)
        keep = rng.random(iu.size) < p
        g = Graph(n, np.stack([iu[keep], ju[keep]], axis=1))
        a = adjacency_matrix(g)
        R = float(a.sum()) / g.n
        eps = math.sqrt(float(np.mean((a.sum(axis=1) - R) ** 2)))
        got = spectral_range(g)
        assert (got.R.hex(), got.epsilon.hex()) == (R.hex(), eps.hex())
        if n >= 5:
            assert not a[active:].any() and got.epsilon > 0


def test_range_of_petersen():
    rng = spectral_range(petersen())
    assert abs(rng.m + 2.0) < 1e-10 and abs(rng.M - 3.0) < 1e-10


def test_range_of_k2():
    rng = spectral_range(Graph(2, [(0, 1)]))
    assert abs(rng.m + 1.0) < 1e-14 and abs(rng.M - 1.0) < 1e-14


def test_range_of_edgeless_graph_is_zero():
    assert spectral_range(Graph(3, frozenset())) == SpectralRange(0.0, 0.0, 0.0, 0.0)


def test_range_is_the_extreme_eigenvalues():
    # m is the smallest eigenvalue and M the largest, checked against the
    # general (nonsymmetric) eigensolver
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = _random_graph(rng, 8, 0.5)
        vals = np.linalg.eigvals(adjacency_matrix(g)).real
        r = spectral_range(g)
        assert abs(r.m - vals.min()) < 1e-10 and abs(r.M - vals.max()) < 1e-10


def test_range_is_invariant_under_relabeling():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = _random_graph(rng, 12, 0.4)
        base = spectral_range(g)
        p = rng.permutation(12)
        relabeled = spectral_range(Graph(12, p[g.edges]))
        assert np.allclose(
            [base.m, base.M, base.R, base.epsilon],
            [relabeled.m, relabeled.M, relabeled.R, relabeled.epsilon],
            atol=1e-10,
        )


def test_rayleigh_quotients_inside_range():
    rng = np.random.default_rng(17)
    g = _random_graph(rng, 15, 0.4)
    a = adjacency_matrix(g)
    r = spectral_range(g)
    for _ in range(100):
        f = rng.standard_normal(15)
        f /= np.linalg.norm(f)
        q = float(f @ a @ f)
        assert r.m - 1e-10 <= q <= r.M + 1e-10


def test_range_is_deterministic():
    g = _random_graph(np.random.default_rng(29), 9, 0.5)
    assert spectral_range(g) == spectral_range(g)


# ------------------------------------------------------ the Lanczos path

def _lanczos_sweep():
    """(name, graph) pairs above the Lanczos crossover, seeded."""
    rng = np.random.default_rng(2024)

    def gnp(n, degree, offset=0):
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < degree / (n - 1)
        return np.stack([iu[keep], ju[keep]], axis=1) + offset

    left, right = np.nonzero(rng.random((300, 300)) < 6 / 300)
    yield "sparse", Graph(600, gnp(600, 5))
    yield "mid-density", Graph(520, gnp(520, 30))
    # two components and 150 isolated vertices
    yield "disconnected", Graph(700, np.vstack([gnp(300, 6), gnp(250, 4, 300)]))
    yield "bipartite", Graph(600, np.stack([left, right + 300], axis=1))
    yield "circulant", Graph(600, [(i, (i + s) % 600) for i in range(600) for s in (1, 7, 30)])
    # the Krylov space of K_{a,b} is invariant at step 3
    yield "K_17,600", Graph(617, [(i, j) for i in range(17) for j in range(17, 617)])
    yield "star", Graph(600, [(0, i) for i in range(1, 600)])
    # with 16 |E| > n^2 Lanczos multiplies by the dense buffer
    yield "G(600,1/5)", Graph(600, gnp(600, 599 / 5))
    yield "G(512,1/2)", Graph(512, gnp(512, 511 / 2))
    iu, ju = np.triu_indices(600, 1)
    parts = iu // 200 != ju // 200
    yield "K_200,200,200", Graph(600, np.stack([iu[parts], ju[parts]], axis=1))
    yield "band circulant", Graph(800, [(i, (i + s) % 800) for i in range(800) for s in range(1, 81)])


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _lanczos_sweep()])
def test_lanczos_range_encloses_the_dense_solve(g):
    # m is proven: at most lambda_min, and close to it; M is the top Ritz value
    vals = np.linalg.eigvalsh(adjacency_matrix(g))
    rng = spectral_range(g)
    tol = 1e-9 * max(1.0, rng.M)
    assert rng.provenance["solver"] == "lanczos"
    assert rng.m <= vals[0] and vals[0] - rng.m <= tol
    assert abs(rng.M - vals[-1]) <= tol


def _lanczos_runs(monkeypatch) -> list:
    """A list that gets (dtype, products, converged) for each _lanczos_extremes run."""
    lanczos = hoffman.graphs._lanczos_extremes
    runs = []

    def counted(matvec, start, rtol):
        calls = []
        found = lanczos(lambda q: calls.append(None) or matvec(q), start, rtol)
        runs.append((start.dtype, len(calls), found is not None))
        return found

    monkeypatch.setattr(hoffman.graphs, "_lanczos_extremes", counted)
    return runs


def test_lanczos_step_cap_falls_back_to_the_dense_solve():
    # a long path's end gaps are about pi^2 / n^2, and a band circulant's
    # bottom eigenvalues crowd too: the float32 sweep cannot converge by its
    # 200-step cap and gives up by half of it.  A float64 restart held to an
    # unreachable tolerance (0) gives up by half of the cap too, after a
    # sweep that converged, on the arc list's product and on the buffer's;
    # so does a float32 sweep held to 0 on the buffer's product, whose
    # float64 cast then goes to eigvalsh.  Each time eigvalsh prints the
    # range, of A assembled once
    floor = hoffman.graphs._LANCZOS_MIN_VERTICES
    half = hoffman.graphs._LANCZOS_MAX_STEPS // 2
    path = Graph(floor, [(i, i + 1) for i in range(floor - 1)])  # at the crossover
    band = Graph(1000, [(i, (i + s) % 1000) for i in range(1000) for s in (1, 2, 3)])
    sweep = dict(_lanczos_sweep())
    restart_0, sweep_0 = {"_LANCZOS_RTOL": 0.0}, {"_SWEEP_RTOL": 0.0}
    cases = [
        (path, {}, [(np.float32, False)]),
        (band, {}, [(np.float32, False)]),
        (sweep["sparse"], restart_0, [(np.float32, True), (np.float64, False)]),
        (sweep["G(600,1/5)"], restart_0, [(np.float32, True), (np.float64, False)]),
        (sweep["G(600,1/5)"], sweep_0, [(np.float32, False)]),
    ]
    for g, rtols, outcomes in cases:
        vals = np.linalg.eigvalsh(adjacency_matrix(g))
        with pytest.MonkeyPatch.context() as mp:
            for name, rtol in rtols.items():
                mp.setattr(hoffman.graphs, name, rtol)
            runs = _lanczos_runs(mp)
            assemblies = _counted_assemblies(mp)
            rng = spectral_range(g)
        assert rng.provenance == {"solver": "dense"}
        assert (rng.m, rng.M) == (float(vals[0]), float(vals[-1]))
        assert [(dtype, converged) for dtype, _, converged in runs] == outcomes
        assert all(products <= half for _, products, converged in runs if not converged)
        assert [kind for kind, _, _ in assemblies] == ["A"]


def test_arc_product_matches_the_dense_product():
    # np.add.reduceat over the sorted arc list; an isolated vertex would be
    # an empty segment, where reduceat gives a wrong value (or an IndexError
    # at index n - 1), so isolated vertices sit first, in the middle and last
    rng = np.random.default_rng(31)
    graphs = [
        Graph(9, [(1, 2), (2, 4), (1, 5), (2, 5), (5, 7), (2, 7)]),  # 0, 3, 6, 8 isolated
        Graph(9, [(0, i) for i in range(1, 9)]),  # a star
        Graph(2, [(0, 1)]),
        Graph(5, [(1, 3)]),
        dict(_lanczos_sweep())["disconnected"],  # 150 isolated vertices, last
    ]
    for g in graphs:
        degrees = np.bincount(g.edges.ravel(), minlength=g.n)
        product = hoffman.graphs._arc_product(*hoffman.graphs._arcs(g, degrees))
        a = adjacency_matrix(g)
        q = rng.random(g.n)
        got, want = product(q), a @ q
        # sums of at most deg(v) terms from [0, 1), in two orders
        assert np.all(np.abs(got - want) <= 2 * degrees * np.finfo(float).eps * want)
        assert np.all(got[degrees == 0] == 0.0)


def test_arc_list_and_dense_products_give_the_same_ritz_values(monkeypatch):
    # the sorted arc list's np.add.reduceat products (float32, then float64)
    # that spectral_range uses on a sparse graph, against the dense A @ q it
    # uses when 16 |E| > n^2.  The two float32 products sum in different
    # orders, so the sweeps and restarts differ in their last bits: each
    # final Ritz value is within its error estimate of the same eigenvalue,
    # e_min for the smallest and at most the run's tolerance for the largest
    graphs = hoffman.graphs
    lanczos = graphs._lanczos_extremes
    used = []

    def kept(matvec, start, rtol):
        used.append((matvec, start, rtol))
        return lanczos(matvec, start, rtol)

    monkeypatch.setattr(graphs, "_lanczos_extremes", kept)
    g = dict(_lanczos_sweep())["mid-density"]
    assert spectral_range(g).provenance["solver"] == "lanczos"
    (sweep_product, start, sweep_rtol), (restart_product, _, restart_rtol) = used
    a = adjacency_matrix(g)
    a32 = a.astype(np.float32)

    def two_runs(product32, product64):
        sweep = lanczos(product32, start, sweep_rtol)
        return lanczos(product64, graphs._restart(sweep), restart_rtol)

    arcs = two_runs(sweep_product, restart_product)
    dense = two_runs(lambda q: a32 @ q, lambda q: a @ q)
    assert abs(arcs.theta_min - dense.theta_min) <= arcs.e_min + dense.e_min
    assert abs(arcs.theta_max - dense.theta_max) <= 2 * restart_rtol * max(1.0, arcs.theta_max)


def test_eliminated_set_is_the_greedy_independent_set():
    # the rounds give the set that greedy takes one vertex at a time: the
    # vertices with deg(v)^2 <= n by degree, then by frac(v * golden ratio),
    # each unless a neighbour was taken before it
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for name, g in _lanczos_sweep():
        degrees = np.bincount(g.edges.ravel(), minlength=g.n)
        neighbours = [[] for _ in range(g.n)]
        for u, v in g.edges.tolist():
            neighbours[u].append(v)
            neighbours[v].append(u)
        key = degrees + (np.arange(g.n) * golden) % 1.0
        want = np.zeros(g.n, dtype=bool)
        for v in np.argsort(key).tolist():
            if degrees[v] ** 2 <= g.n and not any(want[w] for w in neighbours[v]):
                want[v] = True
        assert np.array_equal(hoffman.graphs._eliminated(g, degrees), want), name


def _textbook_schur(a, taken, t):
    """The trailing block of P (A + tI) P^T after textbook Cholesky's first |I| columns.

    P puts the vertices of I = taken first, both parts in index order.  Each
    step is the outer-product form: l_kk = sqrt(b_kk), the column divided
    by it, and the trailing block less the column's outer product (only its
    nonzero rows: the other terms are exact zeros).
    """
    order = np.concatenate([np.flatnonzero(taken), np.flatnonzero(~taken)])
    b = (a + t * np.eye(len(a)))[np.ix_(order, order)]
    k_count = int(np.count_nonzero(taken))
    for k in range(k_count):
        b[k, k] = math.sqrt(b[k, k])
        b[k + 1 :, k] /= b[k, k]
        nz = k + 1 + np.flatnonzero(b[k + 1 :, k])
        b[np.ix_(nz, nz)] -= np.outer(b[nz, k], b[nz, k])
    return b[k_count:, k_count:]


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _lanczos_sweep()])
def test_schur_first_factor_is_cholesky_in_another_order(g):
    # the eliminated set is independent; the Schur buffer has the bits of
    # textbook Cholesky run on the eliminated columns first; and at t =
    # -lambda_min +- 1e-6 its factor completes exactly when the dense factor
    # of A + tI does, and then proves m <= lambda_min
    graphs = hoffman.graphs
    a = adjacency_matrix(g)
    lam = np.linalg.eigvalsh(a)[0]
    degrees = np.bincount(g.edges.ravel(), minlength=g.n)
    taken = graphs._eliminated(g, degrees)
    u, v = g.edges.T
    assert not np.any(taken[u] & taken[v])
    assert np.all(degrees[taken] ** 2 <= g.n)
    for t in (-lam + 1e-6, -lam - 1e-6):
        s = graphs._schur_first(g, *graphs._arcs(g, degrees), degrees, taken, t)
        assert s.tobytes() == _textbook_schur(a, taken, t).tobytes()
        completes = graphs._factors(s)
        assert completes == graphs._factors(a + t * np.eye(g.n)) == (t > -lam)
        if completes:
            assert graphs._proven_floor(g.n, t) <= lam


def test_unproven_ritz_value_falls_back_to_the_dense_solve(monkeypatch):
    # a smallest Ritz value of the float64 restart 1e-6 too high, after both
    # runs converged, makes A + tI indefinite: the factorization fails, and m
    # comes from eigvalsh, never from the Ritz value
    lanczos = hoffman.graphs._lanczos_extremes
    cholesky_lo = hoffman.graphs._umath_linalg.cholesky_lo
    factored = []

    def raised(matvec, start, rtol):
        found = lanczos(matvec, start, rtol)
        if start.dtype == np.float32:  # the sweep only picks the restart's start
            return found
        return found._replace(theta_min=found.theta_min + 1e-6)

    def counted(b, out):
        factored.append(b.shape)
        return cholesky_lo(b, out=out)

    monkeypatch.setattr(hoffman.graphs, "_lanczos_extremes", raised)
    monkeypatch.setattr(hoffman.graphs._umath_linalg, "cholesky_lo", counted)
    g = dict(_lanczos_sweep())["sparse"]
    vals = np.linalg.eigvalsh(adjacency_matrix(g))
    degrees = np.bincount(g.edges.ravel(), minlength=g.n)
    kept = g.n - int(np.count_nonzero(hoffman.graphs._eliminated(g, degrees)))
    assemblies = _counted_assemblies(monkeypatch)
    rng = spectral_range(g)
    # the factor gets the Schur buffer on the vertices left after the
    # elimination; when it fails, A is built for eigvalsh
    assert kept < 400 and factored == [(kept, kept)]
    assert assemblies == [("S", kept, np.float64), ("A", 600, np.float64)]
    assert rng.provenance == {"solver": "dense"}
    assert (rng.m, rng.M) == (float(vals[0]), float(vals[-1]))


def _counted_assemblies(monkeypatch) -> list:
    """A list that gets ("A", n, dtype) for each assembly of A and ("S", |J|, dtype) for each
    Schur buffer."""
    adjacency, schur_first = hoffman.graphs._adjacency, hoffman.graphs._schur_first
    calls = []

    def counted_a(g, *dtype):
        a = adjacency(g, *dtype)
        calls.append(("A", g.n, a.dtype))
        return a

    def counted_s(*args):
        s = schur_first(*args)
        calls.append(("S", len(s), s.dtype))
        return s

    monkeypatch.setattr(hoffman.graphs, "_adjacency", counted_a)
    monkeypatch.setattr(hoffman.graphs, "_schur_first", counted_s)
    return calls


def test_spectral_range_assembles_a_once(monkeypatch):
    # one n x n matrix per request: the dense path's A; on the Lanczos path
    # A in float32 for the dense product's sweep, cast to the float64 buffer
    # the restart multiplies by and the factor overwrites, or after the
    # arc-list products only the Schur buffer; and A for eigvalsh after a
    # give-up, in the sweep or in the restart (the float32 A cast, if built)
    sweep = dict(_lanczos_sweep())
    floor = hoffman.graphs._LANCZOS_MIN_VERTICES
    f32, f64 = np.float32, np.float64
    cases = [
        (cycle(5), "dense", "A", f64),
        # one vertex below the crossover and at it, degree about 25
        (_random_graph(np.random.default_rng(floor - 1), floor - 1, 0.05), "dense", "A", f64),
        (_random_graph(np.random.default_rng(floor), floor, 0.05), "lanczos", "S", f64),
        (_random_graph(np.random.default_rng(500), 500, 0.2), "lanczos", "A", f32),  # the buffer's
        (sweep["sparse"], "lanczos", "S", f64),  # the arc list's products
        (sweep["mid-density"], "lanczos", "S", f64),  # the arc list's, 5 % eliminated
        (sweep["G(600,1/5)"], "lanczos", "A", f32),  # the buffer's products
        (sweep["G(512,1/2)"], "lanczos", "A", f32),
        (Graph(512, [(i, i + 1) for i in range(511)]), "dense", "A", f64),  # the sweep gives up
    ]
    assemblies = _counted_assemblies(monkeypatch)
    for g, solver, kind, dtype in cases:
        assemblies.clear()
        assert spectral_range(g).provenance["solver"] == solver
        assert [(k, d) for k, _, d in assemblies] == [(kind, dtype)]
    # the restart gives up: its unreachable tolerance, 0, stops it by half of the cap
    monkeypatch.setattr(hoffman.graphs, "_LANCZOS_RTOL", 0.0)
    for g, dtype in ((sweep["sparse"], f64), (sweep["G(600,1/5)"], f32)):
        assemblies.clear()
        assert spectral_range(g).provenance["solver"] == "dense"
        assert [(k, d) for k, _, d in assemblies] == [("A", dtype)]
    # the float32 sweep on the buffer's product gives up: eigvalsh takes its float64 cast
    monkeypatch.setattr(hoffman.graphs, "_SWEEP_RTOL", 0.0)
    assemblies.clear()
    assert spectral_range(sweep["G(600,1/5)"]).provenance["solver"] == "dense"
    assert [(k, d) for k, _, d in assemblies] == [("A", f32)]


def test_lanczos_range_is_bitwise_deterministic():
    # on the arc list's product and on the dense one
    sweep = dict(_lanczos_sweep())
    for g in (sweep["circulant"], sweep["G(512,1/2)"]):
        first, second = spectral_range(g), spectral_range(g)
        assert first.provenance["solver"] == "lanczos"
        assert (first.m.hex(), first.M.hex()) == (second.m.hex(), second.M.hex())
        assert first.provenance == second.provenance


def test_dense_lanczos_range_holds_one_matrix():
    # the float32 sweep multiplies by A in float32, which is then cast to the
    # float64 buffer that the restart multiplies by and the factor overwrites
    # in place: the two are held together only for the cast, half a matrix
    # more.  LAPACK's copy of the buffer is numpy's own malloc, which
    # tracemalloc does not see, so the two n x n arrays the process holds at
    # the factor trace as one; a quarter of one more covers the tridiagonal
    # solves and the O(n) vectors
    n = 800
    iu, ju = np.triu_indices(n, 1)
    keep = np.random.default_rng(800).random(iu.size) < 1 / 5
    g = Graph(n, np.stack([iu[keep], ju[keep]], axis=1))
    tracemalloc.start()
    try:
        rng = spectral_range(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rng.provenance["solver"] == "lanczos"
    matrix, basis = 8 * n * n, 8 * (hoffman.graphs._LANCZOS_MAX_STEPS + 1) * n
    assert peak <= matrix + matrix // 2 + basis + matrix // 4


# Prints the solver, the process's peak resident memory (VmHWM) before one
# spectral_range call, its VmHWM after it, and its resident memory (VmRSS)
# before it, in bytes.  An eigen-solve of a 1000 x 1000 matrix and a product
# of a 2000 x 1024 and a 1024 x 256 matrix run first, so that the BLAS
# library's one-time setup of its work buffers is not counted: the product
# touches as much of OpenBLAS's work buffer as a factor of 2000 x 2000, the
# largest size measured, does.  Their operands live in mappings of their
# own, so no freed heap is left for the call to reuse, and stay resident
# through the call: the warm-up's peak is then no higher than the VmRSS the
# call starts from, so VmHWM can only rise with the call's own peak.
_PEAK_SCRIPT = """
import sys
import numpy as np
from hoffman.graphs import Graph, _mapped, spectral_range

def status(key):
    with open("/proc/self/status") as f:
        fields = dict(line.split(":", 1) for line in f)
    return int(fields[key].split()[0]) * 1024

n, kind, sizes = int(sys.argv[1]), sys.argv[2], [int(d) for d in sys.argv[3].split(",")]
if kind == "circulant":  # sizes are the distances
    i = np.arange(n)
    s = np.array(sizes)
    g = Graph(n, np.stack([np.repeat(i, len(s)), (i[:, None] + s).ravel() % n], axis=1))
    del i, s
else:  # the complete bipartite graph K_{a, n - a}, a = sizes[0]
    a = sizes[0]
    g = Graph(n, np.stack([np.repeat(np.arange(a), n - a), np.tile(np.arange(a, n), a)], axis=1))
x = _mapped(1000 * 1000, float)
x[:] = 1.0
x[::1001] = 2.0
np.linalg.eigvalsh(x.reshape(1000, 1000))
a, b, c = _mapped(2000 * 1024, float), _mapped(1024 * 256, float), _mapped(2000 * 256, float)
a[:] = b[:] = 1.0
np.matmul(a.reshape(2000, 1024), b.reshape(1024, 256), out=c.reshape(2000, 256))
before, mark = status("VmRSS"), status("VmHWM")
solver = spectral_range(g).provenance["solver"]
print(solver, mark, status("VmHWM"), before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "n, kind, sizes, solver",
    # circulants: distances 1-300 (density 0.3) converge multiplying by the
    # buffer, distances 1-80 (density 0.08) on the arc list with nothing
    # eliminated, and six scattered distances on the arc list with a fifth
    # of the vertices eliminated; K_{44,1956} eliminates its 1956 leaves,
    # 3.8 million neighbour pairs; the cycle (distance 1) gives up and
    # eigvalsh solves A
    [
        (2000, "circulant", "1-300", "lanczos"),
        (2000, "circulant", "1-80", "lanczos"),
        (2000, "circulant", "1,2,5,11,30,97", "lanczos"),
        (2000, "bipartite", "44", "lanczos"),
        (1500, "circulant", "1", "dense"),
    ],
    ids=["dense product", "arc list", "elimination", "bipartite elimination", "give-up"],
)
def test_real_memory_peak_is_two_matrices(n, kind, sizes, solver):
    # tracemalloc does not see LAPACK's copy of the matrix; the process's
    # high-water mark does.  The factored or solved matrix and LAPACK's copy
    # of it are the two n x n arrays; a quarter of one more covers LAPACK's
    # workspace, the tridiagonal solves and the O(n) and O(|E|) vectors
    if "-" in sizes:
        lo, hi = map(int, sizes.split("-"))
        sizes = ",".join(map(str, range(lo, hi + 1)))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, str(n), kind, sizes],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed, mark, peak, before = proc.stdout.split()
    matrix, basis = 8 * n * n, 8 * (hoffman.graphs._LANCZOS_MAX_STEPS + 1) * n
    assert printed == solver
    # a peak that the call did not raise would be the warm-up's, not the call's
    assert int(peak) > int(mark)
    assert int(peak) - int(before) <= 2 * matrix + basis + matrix // 4


def test_proven_floor_rounds_the_cholesky_bound_down():
    # -t - gamma_{n+1} n t / (1 - gamma_{n+1}), and the underflow term below it
    u = Fraction(1, 2**53)
    for n, t in [(512, 4.5), (1000, 5.159970941785031), (10_000, 101.0)]:
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        bound = -Fraction(t) - gamma * n * Fraction(t) / (1 - gamma)
        m = hoffman.graphs._proven_floor(n, t)
        assert Fraction(m) < bound < Fraction(math.nextafter(m, math.inf)) + Fraction(1, 2**1000)


def test_in_place_cholesky_contract():
    # the Lanczos path proves m with numpy's private gufunc, called on the
    # buffer's column-major view bt = b.T with out=bt: it writes L over bt
    # (so b holds L^T; np.linalg.cholesky allocates a third n x n array)
    # and, under errstate(invalid="raise"), raises on a matrix that is not
    # positive definite; a numpy that changes either fails here rather than
    # in a bound
    cholesky_lo = hoffman.graphs._umath_linalg.cholesky_lo
    x = np.random.default_rng(5).standard_normal((40, 40))
    a = x @ x.T + np.eye(40)
    b = a.copy()
    bt = b.T
    with np.errstate(invalid="raise"):
        assert cholesky_lo(bt, out=bt) is bt
    assert np.array_equal(b, np.linalg.cholesky(a).T)
    assert np.array_equal(b, np.triu(b))
    c = a - (np.linalg.eigvalsh(a)[0] + 1e-3) * np.eye(40)
    ct = c.T
    with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
        cholesky_lo(ct, out=ct)


def test_eigvalsh_of_the_column_major_view_has_the_same_bits():
    # the dense path hands LAPACK A.T: for a symmetric A the same matrix
    x = np.random.default_rng(6).standard_normal((60, 60))
    g = _random_graph(np.random.default_rng(7), 60, 0.3)
    for a in (x + x.T, adjacency_matrix(g)):
        assert np.linalg.eigvalsh(a.T).tobytes() == np.linalg.eigvalsh(a).tobytes()


# ------------------------------------------------------------ the bounds

def test_hoffman_c5_is_sqrt5():
    rep = chi_lb(spectral_range(cycle(5)))
    assert abs(rep.value - SQRT5) < 1e-10
    assert abs(rep.value - (rep.M - rep.m) / (-rep.m)) < 1e-12


def test_hoffman_petersen_and_k4():
    assert abs(chi_lb(spectral_range(petersen())).value - 2.5) < 1e-10
    k4 = Graph(4, oracles.complete_edges(4))
    assert abs(chi_lb(spectral_range(k4)).value - 4.0) < 1e-10


def test_hoffman_error_contracts():
    # the edgeless graph has m = 0: no negative spectrum, so the bound is vacuous
    with pytest.raises(NoNegativeSpectrumError) as exc:
        chi_lb(spectral_range(Graph(3, frozenset())))
    assert isinstance(exc.value, VacuousBoundError)
    with pytest.raises(ValueError, match="unknown bound kind 'chi_ub'"):
        BoundReport("chi_ub", 3.0, -1.0, 2.0)


def test_ratio_bound_regular_graphs():
    rep = alpha_ratio_ub(spectral_range(cycle(5)))
    assert rep.epsilon == 0.0
    assert abs(5.0 * rep.value - SQRT5) < 1e-10
    pet = alpha_ratio_ub(spectral_range(petersen()))
    assert abs(pet.value - 0.4) < 1e-10  # alpha(Petersen) = 4 = 10 * 0.4


def test_ratio_bound_p3_hand_computed():
    # A1 = (1,2,1), R = 4/3, eps = sqrt(mean((deg - R)^2)) = sqrt(2/9)
    g = Graph(3, [(0, 1), (1, 2)])
    rep = alpha_ratio_ub(spectral_range(g))
    m = -math.sqrt(2.0)
    R = 4.0 / 3.0
    eps = math.sqrt((2 * (1 - R) ** 2 + (2 - R) ** 2) / 3.0)
    assert abs(rep.R - R) < 1e-12
    assert abs(rep.epsilon - eps) < 1e-12
    assert abs(rep.value - (-m + 2 * eps) / (R - m - eps)) < 1e-12


def test_ratio_bound_inapplicable():
    rng = replace(spectral_range(cycle(5)), R=-5.0)
    with pytest.raises(BoundInapplicableError):
        alpha_ratio_ub(rng)
    assert set(bounds(rng, chi_lb, alpha_ratio_ub)) == {"chi_lb"}


def test_fractional_bound_examples():
    assert abs(chi_frac_lb(spectral_range(cycle(5))).value - SQRT5) < 1e-10
    k4 = Graph(4, oracles.complete_edges(4))
    assert abs(chi_frac_lb(spectral_range(k4)).value - 4.0) < 1e-10
    with pytest.raises(VacuousBoundError):
        chi_frac_lb(spectral_range(Graph(2, frozenset())))


# ------------------------------------------------------------ brute force

def test_brute_force_alpha_known():
    assert brute_force_alpha(5, oracles.cycle_edges(5)) == 2
    assert brute_force_alpha(10, oracles.petersen_edges()) == 4
    assert brute_force_alpha(7, []) == 7
    assert brute_force_alpha(4, oracles.complete_edges(4)) == 1
    assert brute_force_alpha(6, oracles.complete_bipartite_edges(3, 3)) == 3


def test_brute_force_chi_known():
    assert brute_force_chi(5, oracles.cycle_edges(5)) == 3
    assert brute_force_chi(10, oracles.petersen_edges()) == 3
    assert brute_force_chi(4, oracles.complete_edges(4)) == 4
    assert brute_force_chi(5, []) == 1
    assert brute_force_chi(6, oracles.complete_bipartite_edges(3, 3)) == 2


def test_brute_force_size_guards():
    with pytest.raises(ValueError):
        brute_force_alpha(31, [])
    with pytest.raises(ValueError):
        brute_force_chi(21, [])


def test_alpha_witness_is_independent():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        a = brute_force_alpha(n, edges)
        assert 1 <= a <= n


def test_soundness_random_suite():
    # Hoffman never exceeds chi; n * ratio never undercuts alpha
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        if not len(g.edges):
            continue
        spec = spectral_range(g)
        chi = brute_force_chi(n, edges)
        alpha = brute_force_alpha(n, edges)
        assert chi_lb(spec).value <= chi + 1e-9
        assert n * alpha_ratio_ub(spec).value >= alpha - 1e-9
        assert chi_frac_lb(spec).value <= chi + 1e-9
