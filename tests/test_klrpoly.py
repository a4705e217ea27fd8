"""Polynomial representation of the quiver Hecke algebra.

Generators act on labeled polynomials $f \\cdot 1_i$: idempotents
$e(j)$ project onto a word, $x_k$ multiplies by the $k$-th variable,
and the crossing $\\psi_r$ acts by the divided difference
$(f - s_r f)/(x_r - x_{r+1})$ when $i_r = i_{r+1}$ and by a twisted
swap otherwise.  The defining relations are checked on random inputs
by relation_suite; faithfulness of the representation is checked by a
rank computation on a spanning family of operators.

The smash product $S(V) \\rtimes k[S_n]$ acts through the same
machinery with honest (non divided) transpositions; its center is
the ring of symmetric polynomials, whose graded dimensions are
partition counts with parts of size at most $n$.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
import sys
import threading
from fractions import Fraction
from itertools import permutations

import pytest

from quiverchow import klrpoly
from quiverchow.klrpoly import (
    KLROperator,
    LabeledPoly,
    Poly,
    SmashElement,
    atom_degree,
    content_words,
    inversions,
    monomials_of_degree,
    perm_compose,
    perm_to_word,
    relation_suite,
    smash_center_dims,
    smash_mul,
)
from quiverchow.linalg import rank_int
from quiverchow.quiver import DimVector, cartan, parse_quiver


A1 = parse_quiver("A1")
A2 = parse_quiver("A2")


def rand_poly(rng: random.Random, n: int, max_deg: int = 2) -> Poly:
    total = Poly.zero(n)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        total = total.add(Poly.monomial(n, exps, rng.choice([-2, -1, 1, 2, 3])))
    return total


def test_divided_difference_kills_symmetric():
    rng = random.Random(2)
    for _ in range(10):
        f = rand_poly(rng, 2)
        sym = f.mul(f.swap(0, 1)) if rng.random() < 0.5 else f.add(f.swap(0, 1))
        assert sym.divided_difference(0, 1).is_zero()


def test_divided_difference_twisted_leibniz():
    # d(fg) = d(f) g + (s f) d(g)
    rng = random.Random(9)
    for _ in range(10):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        lhs = f.mul(g).divided_difference(1, 2)
        rhs = f.divided_difference(1, 2).mul(g).add(
            f.swap(1, 2).mul(g.divided_difference(1, 2)))
        assert lhs == rhs


def test_divided_difference_basic_values():
    x1, x2 = Poly.x(2, 1), Poly.x(2, 2)
    assert x1.divided_difference(0, 1) == Poly.one(2)
    assert x2.divided_difference(0, 1) == Poly.constant(2, -1)
    assert x1.mul(x2).divided_difference(0, 1).is_zero()
    assert x1.mul(x1).divided_difference(0, 1) == x1.add(x2)


def test_permute_is_ring_map():
    rng = random.Random(4)
    for _ in range(8):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        perm = tuple(rng.sample(range(3), 3))
        assert f.mul(g).permute(perm) == f.permute(perm).mul(g.permute(perm))


def test_idempotent_projects_on_word():
    f = LabeledPoly.from_poly((0, 1), Poly.x(2, 1))
    keep = KLROperator.e(A2, 2, (0, 1)).apply(f)
    kill = KLROperator.e(A2, 2, (1, 0)).apply(f)
    assert keep == f
    assert not kill.components


def test_equal_label_crossing_is_divided_difference():
    # psi on (0,0): x1 . 1_i maps to 1 . 1_i
    f = LabeledPoly.from_poly((0, 0), Poly.x(2, 1))
    out = KLROperator.psi(A1, 2, 1).apply(f)
    assert out == LabeledPoly.from_poly((0, 0), Poly.one(2))
    # symmetric polynomials die
    sym = LabeledPoly.from_poly((0, 0), Poly.x(2, 1).mul(Poly.x(2, 2)))
    assert not KLROperator.psi(A1, 2, 1).apply(sym).components


def test_unequal_label_crossing_twists_and_multiplies():
    # A2 word (0,1): crossing to (1,0) picks up (x_1 - x_2)^{#arrows 0->1}
    f = LabeledPoly.from_poly((0, 1), Poly.one(2))
    out = KLROperator.psi(A2, 2, 1).apply(f)
    expect = Poly.x(2, 1).sub(Poly.x(2, 2))
    assert out == LabeledPoly.from_poly((1, 0), expect)
    # the reverse crossing has no arrow, so it is a plain swap
    back = KLROperator.psi(A2, 2, 1).apply(LabeledPoly.from_poly((1, 0), Poly.one(2)))
    assert back == LabeledPoly.from_poly((0, 1), Poly.one(2))


def reference_atom(Q, atom: tuple, m: LabeledPoly) -> LabeledPoly:
    """One generator on a labeled polynomial, from Poly primitives only."""
    kind, arg = atom
    n = m.n
    if kind == "e":
        f = m.components.get(arg)
        return LabeledPoly(n, {arg: f}) if f is not None else LabeledPoly(n)
    if kind == "x":
        return LabeledPoly(n, {w: f.mul(Poly.x(n, arg)) for w, f in m.components.items()})
    r = arg
    out = LabeledPoly(n)
    for w, f in m.components.items():
        v, u = w[r - 1], w[r]
        if v == u:
            out = out.add(LabeledPoly(n, {w: f.divided_difference(r - 1, r)}))
            continue
        sw = list(w)
        sw[r - 1], sw[r] = u, v
        g = f.swap(r - 1, r)
        for _ in range(Q.arrow_count(v, u)):
            g = g.mul(Poly.x(n, r).sub(Poly.x(n, r + 1)))
        out = out.add(LabeledPoly(n, {tuple(sw): g}))
    return out


def test_action_matches_poly_reference():
    # random operators of up to three terms, each a string of at most four
    # generators, on random labeled polynomials with int and Fraction
    # coefficients; "x_k x_l - x_l x_k" terms and symmetric inputs under
    # equal-label crossings make some results cancel to zero
    rng = random.Random(41)
    coeffs = [-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)]
    zeros = nonzeros = 0
    for _ in range(400):
        Q = parse_quiver(rng.choice(["A1", "A2", "A3", "cyclic:1", "cyclic:2", "cyclic:3"]))
        n = rng.randint(1, 4)
        d = [0] * Q.n
        for _ in range(n):
            d[rng.randrange(Q.n)] += 1
        words = content_words(Q, DimVector(tuple(d)))
        comps = {}
        for w in rng.sample(words, min(len(words), rng.randint(1, 3))):
            g = rand_poly(rng, n).scale(rng.choice(coeffs))
            if n >= 2 and rng.random() < 0.3:
                g = g.add(g.swap(0, 1))
            comps[w] = g
        f = LabeledPoly(n, comps)
        atoms_of = [lambda: ("e", rng.choice(words)), lambda: ("x", rng.randint(1, n))]
        if n >= 2:
            atoms_of += [lambda: ("psi", rng.randint(1, n - 1))] * 2
        terms = []
        for _ in range(rng.randint(1, 3)):
            atoms = tuple(rng.choice(atoms_of)() for _ in range(rng.randint(0, 4)))
            terms.append((rng.choice(coeffs), atoms))
        if n >= 2 and rng.random() < 0.3:
            k, l = rng.sample(range(1, n + 1), 2)
            tail = tuple(rng.choice(atoms_of)() for _ in range(rng.randint(0, 2)))
            terms += [(1, (("x", k), ("x", l)) + tail), (-1, (("x", l), ("x", k)) + tail)]
        op = KLROperator(Q, n, tuple(terms))
        expect = LabeledPoly(n)
        for c, atoms in op.terms:
            cur = f
            for atom in reversed(atoms):
                cur = reference_atom(Q, atom, cur)
            expect = expect.add(cur.scale(c))
        got = op.apply(f)
        assert got == expect, (str(Q), str(op), str(f))
        if got.is_zero():
            zeros += 1
        else:
            nonzeros += 1
    assert zeros >= 30 and nonzeros >= 200, (zeros, nonzeros)


@pytest.mark.parametrize(
    "build",
    [
        lambda: KLROperator.psi(A2, 2, 0),
        lambda: KLROperator.psi(A2, 2, 2),
        lambda: KLROperator.psi(A2, 2, 5),
        lambda: KLROperator.x(A2, 2, 0),
        lambda: KLROperator.x(A2, 2, 3),
        lambda: KLROperator.e(A2, 2, (0,)),
        lambda: KLROperator.e(A2, 2, (0, 1, 1)),
        lambda: KLROperator.e(A2, 2, (0, 2)),
        lambda: KLROperator.x(A2, 2, 1) + KLROperator.x(parse_quiver("A3"), 3, 1),
        lambda: KLROperator.x(A2, 2, 1) * KLROperator.x(parse_quiver("A3"), 3, 1),
        lambda: KLROperator.x(A2, 2, 1) - KLROperator.x(A1, 2, 1),
        lambda: KLROperator.x(A2, 2, 1) * KLROperator.x(A2, 3, 1),
        lambda: KLROperator.x(A2, 2, 1).apply(LabeledPoly.from_poly((0,), Poly.x(1, 1))),
    ],
    ids=["psi-zero", "psi-last", "psi-past-end", "x-zero", "x-past-end",
         "e-short", "e-long", "e-bad-letter", "add-other-quiver",
         "mul-other-quiver", "sub-other-quiver", "mul-other-strands",
         "apply-other-variables"],
)
def test_out_of_range_generators_are_refused(build):
    with pytest.raises(ValueError):
        build()


def test_poly_pow_refuses_negative_exponent():
    assert Poly.x(2, 1).pow(0) == Poly.one(2)
    with pytest.raises(ValueError):
        Poly.x(2, 1).pow(-1)


def test_nil_hecke_squares_to_zero():
    rng = random.Random(13)
    psi = KLROperator.psi(A1, 2, 1)
    for _ in range(10):
        f = LabeledPoly.from_poly((0, 0), rand_poly(rng, 2))
        assert not psi.apply(psi.apply(f)).components


def test_nil_hecke_braid_relation():
    rng = random.Random(31)
    p1, p2 = KLROperator.psi(A1, 3, 1), KLROperator.psi(A1, 3, 2)
    lhs, rhs = p1 * p2 * p1, p2 * p1 * p2
    for _ in range(10):
        f = LabeledPoly.from_poly((0, 0, 0), rand_poly(rng, 3))
        assert lhs.apply(f) == rhs.apply(f)


def test_mixed_relation_straightening():
    # psi_r x_r - x_{r+1} psi_r = e(i) on equal labels, 0 otherwise
    rng = random.Random(8)
    psi, x1, x2 = (KLROperator.psi(A1, 2, 1), KLROperator.x(A1, 2, 1),
                   KLROperator.x(A1, 2, 2))
    op = psi * x1 - x2 * psi
    for _ in range(8):
        f = LabeledPoly.from_poly((0, 0), rand_poly(rng, 2))
        assert op.apply(f) == f


def test_operator_degrees_match_action():
    # deg e = 0, deg x = 2, deg psi_r = -c_{i_r, i_{r+1}}
    assert atom_degree(A1, ("x", 1), (0, 0)) == 2
    assert atom_degree(A1, ("psi", 1), (0, 0)) == -2
    assert atom_degree(A2, ("psi", 1), (0, 1)) == -cartan(A2, 0, 1) == 1
    assert atom_degree(A2, ("e", (0, 1)), (0, 1)) == 0


def test_word_offset_counts_arrows_forward_and_refuses_bad_letters():
    # one unit per pair k < l with an arrow i_k -> i_l; a letter outside the
    # quiver raises, and a negative one does not wrap to the last vertex
    A3 = parse_quiver("A3")
    assert klrpoly.word_offset(A3, (0, 1, 2, 1)) == 3
    assert klrpoly.word_offset(parse_quiver("cyclic:2"), (1, 0, 1)) == 2
    for word in ((0, 3), (0, -1), (-1,)):
        with pytest.raises(ValueError):
            klrpoly.word_offset(A3, word)


def test_relation_suite_clean_on_sample_pairs():
    cases = [("A1", (2,)), ("A2", (1, 1)), ("cyclic:2", (1, 1)),
             ("cyclic:1", (2,)), ("A3", (1, 1, 1))]
    for spec, d in cases:
        report = relation_suite(parse_quiver(spec), DimVector(d), trials=12, seed=5)
        assert report.ok, (spec, [v.name for v in report.verdicts if v.failures])
        assert all(v.trials >= 12 for v in report.verdicts)


def test_relation_suite_covers_expected_families():
    report = relation_suite(A2, DimVector((1, 1)), trials=4, seed=1)
    names = {v.name for v in report.verdicts}
    assert "degree-homogeneity" in names
    assert any("mixed" in n for n in names)
    assert "psi-square" in names


# SHA-256 of the inputs relation_suite drew as {word: Poly} before the
# draws went straight into flat maps, with the generator state after each
_DRAW_DIGEST = "f7d8a6b4addd6cedad025f9bed2677ef7f42a341edf738e5ec19b3226461c902"


def test_flat_draws_are_the_pinned_inputs():
    families = ("idempotents", "x-commute", "label-exchange", "mixed-left",
                "mixed-right", "psi-square", "x-distant", "braid", "psi-distant")
    h = hashlib.sha256()
    for spec, d in (("A2", (1, 1)), ("A3", (1, 2, 1)), ("cyclic:2", (2, 1)),
                    ("cyclic:3", (1, 1, 2))):
        words = content_words(parse_quiver(spec), DimVector(d))
        for seed in (0, 1):
            for name in families:
                for t in range(8):
                    rng = random.Random(f"{seed}:{name}:{t}")
                    terms = klrpoly._rand_terms(functools.partial(rng.getrandbits, 32),
                                                sum(d), len(words))
                    flat = klrpoly._flat_of(terms, 0, sum(d), words)
                    h.update(repr((sorted(flat.items()), rng.getstate())).encode())
    assert h.hexdigest() == _DRAW_DIGEST


# SHA-256 over the generator state at the end of every trial of
# `relation_suite`, in trial order, on the (Q, d) and seeds above; and over
# the term list and flat input of every fold a trial asks for
_TRIAL_STATE_DIGEST = "dff70ca5adf9a46feff98635baf504c241dcc46008a167c9b7b67ff390e1f6ae"
_TRIAL_INPUT_DIGEST = "4b571767fa76e3d9d35d992979987bdf45de3a292dc03353302ad69342d29342"


def test_every_trial_ends_in_the_pinned_generator_state(monkeypatch):
    # without a store, each trial draws from its own Random(key); the
    # digest is over each key and its generator's state when the suite ends
    h = hashlib.sha256()
    h_in = hashlib.sha256()
    real_apply = klrpoly._apply_terms
    made = []

    class Recorded(random.Random):
        def __init__(self, key):
            super().__init__(key)
            made.append((key, self))

    def recorded(Q, terms, flat):
        h_in.update(repr((terms, sorted(flat.items()))).encode())
        return real_apply(Q, terms, flat)

    monkeypatch.setattr(klrpoly, "Random", Recorded)
    monkeypatch.setattr(klrpoly, "_apply_terms", recorded)
    for spec, d in (("A2", (1, 1)), ("A3", (1, 2, 1)), ("cyclic:2", (2, 1)),
                    ("cyclic:3", (1, 1, 2))):
        for seed in (0, 1):
            assert relation_suite(parse_quiver(spec), DimVector(d), trials=10, seed=seed).ok
    for key, rng in made:
        h.update(repr(key).encode())
        h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == _TRIAL_STATE_DIGEST
    assert h_in.hexdigest() == _TRIAL_INPUT_DIGEST


def test_raw_bit_draws_equal_the_random_module():
    # _below and _sample give the values of randrange, randint, choice and
    # sample (k <= 2, pools on both sides of sample's small-set size 21)
    # and leave the generator in the same state
    below, sample = klrpoly._below, klrpoly._sample
    pools = [tuple(range(m)) for m in (1, 2, 3, 5, 12, 20, 21, 22, 23, 90)]
    for seed in range(300):
        a, b = random.Random(seed), random.Random(seed)
        draw = functools.partial(b.getrandbits, 32)
        for m in (1, 2, 3, 4, 5, 6, 7, 8, 12, 63, 64, 65, 1000, 2**31, 2**32 - 1):
            assert a.randrange(m) == below(draw, m)
            assert a.randint(1, m) == 1 + below(draw, m)
            assert a.randrange(5, 5 + m) == 5 + below(draw, m)
        for pool in pools:
            assert a.choice(pool) == pool[below(draw, len(pool))]
            for k in range(min(len(pool), 2) + 1):
                assert a.sample(pool, k) == sample(draw, len(pool), k)
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("m", [0, -3, 2**32, 2**40])
def test_a_bound_one_word_cannot_serve_is_refused(m):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        klrpoly._below(functools.partial(rng.getrandbits, 32), m)
    # refused before any word is read
    assert rng.getstate() == random.Random(0).getstate()


def test_a_stream_past_its_first_prefix_is_the_generator_sequence():
    # trials on the 20 strands of A1 (20) read past the first prefix of
    # their streams
    Q, d = parse_quiver("A1"), DimVector((20,))
    read = []
    real_draw = klrpoly.TrialStreams.draw

    def recorded(self, key):
        draw = real_draw(self, key)
        words = []
        read.append((key, words))

        def next_word():
            words.append(draw())
            return words[-1]
        return next_word

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(klrpoly.TrialStreams, "draw", recorded)
        assert relation_suite(Q, d, trials=20, seed=3, streams=klrpoly.TrialStreams()).ok
    assert max(len(words) for _, words in read) > klrpoly._FIRST_WORDS
    for key, words in read:
        rng = random.Random(key)
        assert words == [rng.getrandbits(32) for _ in words], key
    # three growth steps, and a store that already holds a grown prefix
    # hands out the same words again
    rng = random.Random("3:braid:0")
    want = [rng.getrandbits(32) for _ in range(5 * klrpoly._FIRST_WORDS)]
    streams = klrpoly.TrialStreams()
    for _ in range(2):
        draw = streams.draw("3:braid:0")
        assert [draw() for _ in want] == want


def test_threads_sharing_a_store_read_the_generator_sequence():
    # more threads than cores, switching often, read streams of shared keys
    # to different lengths; each reads its key's words, and no entry is
    # replaced by a shorter one
    keys = [f"0:braid:{t}" for t in range(40)]
    lengths = (5, klrpoly._FIRST_WORDS + 1, 3 * klrpoly._FIRST_WORDS, 7 * klrpoly._FIRST_WORDS)
    want = {}
    for key in keys:
        rng = random.Random(key)
        want[key] = [rng.getrandbits(32) for _ in range(2 * max(lengths))]
    streams = klrpoly.TrialStreams()
    wrong = []
    read = []

    def reader(offset):
        for i in range(4 * len(keys)):
            key = keys[(i + offset) % len(keys)]
            length = lengths[(i // len(keys) + offset) % len(lengths)]
            draw = streams.draw(key)
            if [draw() for _ in range(length)] != want[key][:length]:
                wrong.append((key, length))
            read.append((key, length))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    for key in keys:
        stored = streams._words[key]
        assert len(stored) >= max(length for k, length in read if k == key)
        assert list(stored) == want[key][:len(stored)]
    assert {length for _, length in read} == set(lengths)


def test_threads_sharing_a_store_draw_one_input_per_shape():
    # more threads than cores, switching often, ask for the inputs of
    # shared keys on shared shapes; each gets what a draw straight from
    # Random(key) gives, whichever thread stored it
    keys = [f"0:x-commute:{t}" for t in range(30)]
    shapes = ((1, 1), (3, 6), (4, 12), (4, 300))

    def step_for(n, nw):
        def step(draw):
            return [klrpoly._below(draw, n)] + klrpoly._rand_terms(draw, n, nw)
        return step

    want = {
        (key, n, nw): step_for(n, nw)(functools.partial(random.Random(key).getrandbits, 32))
        for key in keys for n, nw in shapes
    }
    streams = klrpoly.TrialStreams()
    wrong = []

    def reader(offset):
        for i in range(4 * len(keys)):
            key = keys[(i + offset) % len(keys)]
            n, nw = shapes[(i // len(keys) + offset) % len(shapes)]
            if list(streams.inputs(key, n, nw, step_for(n, nw))) != want[key, n, nw]:
                wrong.append((key, n, nw))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert {shape: set(entries) for shape, entries in streams._inputs.items()} == {
        shape: set(keys) for shape in shapes
    }
    # past 256 words an index needs more than one byte
    assert {type(entry) for entry in streams._inputs[4, 300].values()} == {tuple}


def _fold_inputs(monkeypatch, cases) -> list:
    """The fold inputs of every case, run in order, as one digest each."""
    inputs: dict = {}
    current = []
    real_apply = klrpoly._apply_terms

    def recorded(Q, terms, flat):
        current.append(repr((terms, sorted(flat.items()))))
        return real_apply(Q, terms, flat)

    monkeypatch.setattr(klrpoly, "_apply_terms", recorded)
    for cid, check in cases:
        ok, _ = check()
        assert ok, cid
        inputs[cid] = hashlib.sha256("\n".join(current).encode()).hexdigest()
        current.clear()
    return inputs


def test_a_shared_store_draws_what_a_fresh_store_draws(monkeypatch):
    # the sweep's one store against calls without a store, which draw each
    # trial from its own Random(key); at total 4 every one of the 10 shapes
    # (n, nw) is read back by cases on other quivers
    from quiverchow import cli

    for seed in (0, 7):
        shared = _fold_inputs(monkeypatch, cli.relations_cases(4, 10, seed))
        monkeypatch.setattr(cli, "TrialStreams", lambda: None)
        fresh = _fold_inputs(monkeypatch, cli.relations_cases(4, 10, seed))
        monkeypatch.undo()
        assert shared == fresh
        assert len(shared) == len(cli.relations_cases(4, 10, seed))


def test_a_sweep_draws_each_input_once_per_shape(monkeypatch):
    # the 104 cases at total 4 ask for 8,660 trial inputs on 10 shapes
    # (n, nw); each (key, n, nw) is drawn once, 84 (shape, family) pairs
    # of 10 trials, and every other ask reads the stored input back
    from quiverchow import cli

    asked, drawn = [], []
    real_inputs = klrpoly.TrialStreams.inputs

    def counted(self, key, n, nw, step):
        asked.append(key)

        def counted_step(draw):
            drawn.append((key, n, nw))
            return step(draw)
        return real_inputs(self, key, n, nw, counted_step)

    monkeypatch.setattr(klrpoly.TrialStreams, "inputs", counted)
    cases = cli.relations_cases(4, 10, 0)
    assert all(check()[0] for _, check in cases)
    assert len(drawn) == len(set(drawn)) == 840
    assert len({(n, nw) for _, n, nw in drawn}) == 10
    assert len(asked) == 8660


def test_a_sweep_store_holds_its_inputs_in_256_kib(monkeypatch):
    # the index-level inputs of a 25-trial sweep at total 4: one bytes
    # entry per (key, n, nw) in one dict per shape (their key strings are
    # the word streams' keys)
    from quiverchow import cli

    made = []

    def recorded():
        made.append(klrpoly.TrialStreams())
        return made[-1]

    monkeypatch.setattr(cli, "TrialStreams", recorded)
    assert all(check()[0] for _, check in cli.relations_cases(4, 25, 0))
    (store,) = made
    shapes = store._inputs.values()
    assert sum(len(shape) for shape in shapes) == 2100
    assert all(type(entry) is bytes for shape in shapes for entry in shape.values())
    held = sys.getsizeof(store._inputs) + sum(
        sys.getsizeof(shape) + sum(map(sys.getsizeof, shape.values())) for shape in shapes
    )
    assert held <= 256 * 1024


@pytest.mark.parametrize("seed", [0, 1])
def test_a_sweep_reads_no_stream_past_its_first_prefix(monkeypatch, seed):
    # no trial of a 25-trial sweep at total 4 reads more than
    # `_FIRST_WORDS` words, so each key is seeded once
    from quiverchow import cli

    made = []

    def recorded():
        made.append(klrpoly.TrialStreams())
        return made[-1]

    monkeypatch.setattr(cli, "TrialStreams", recorded)
    assert all(check()[0] for _, check in cli.relations_cases(4, 25, seed))
    (store,) = made
    assert len(store._words) == 250
    assert {len(words) for words in store._words.values()} == {klrpoly._FIRST_WORDS}


def test_relation_suite_catches_a_flipped_arrow_factor(monkeypatch):
    # the wrong convention: (x_{r+1} - x_r) per arrow instead of (x_r - x_{r+1})
    real_act = klrpoly._act

    def flipped(Q, atom, flat):
        if atom[0] == "psi":
            k = atom[1] - 1
            flat = {
                (w, e): -c if w[k] != w[k + 1] and Q.arrow_count(w[k], w[k + 1]) % 2 else c
                for (w, e), c in flat.items()
            }
        return real_act(Q, atom, flat)

    assert relation_suite(A2, DimVector((2, 1)), trials=12, seed=0).ok
    monkeypatch.setattr(klrpoly, "_act", flipped)
    for d, name in (((1, 1), "psi-square"), ((2, 1), "psi-square"), ((2, 1), "braid")):
        report = relation_suite(A2, DimVector(d), trials=12, seed=0)
        verdict = next(v for v in report.verdicts if v.name == name)
        assert verdict.failures > 0
        assert re.match(r"trial \d+: ", verdict.witness)


def test_relation_suite_catches_an_idempotent_that_loses_keys(monkeypatch):
    # e(w) that also drops the keys of odd degree is still idempotent and
    # orthogonal, so only the sum of the idempotents can tell
    real_act = klrpoly._act

    def lossy(Q, atom, flat):
        out = real_act(Q, atom, flat)
        if atom[0] == "e":
            out = {(w, e): c for (w, e), c in out.items() if sum(e) % 2 == 0}
        return out

    monkeypatch.setattr(klrpoly, "_act", lossy)
    for spec, d in (("A2", (2, 1)), ("cyclic:2", (1, 1))):
        report = relation_suite(parse_quiver(spec), DimVector(d), trials=12, seed=0)
        verdict = next(v for v in report.verdicts if v.name == "idempotents")
        assert verdict.failures > 0, spec
        assert re.match(r"trial \d+: sum of idempotents on ", verdict.witness), verdict.witness


def test_faithfulness_rank_of_low_degree_operators():
    # operators psi_w x^a e(i) with l(w) <= 2, |a| <= 2 act independently
    for spec, d in [("A1", (2,)), ("A1", (3,)), ("A2", (1, 1)),
                    ("cyclic:2", (1, 1))]:
        Q = parse_quiver(spec)
        dv = DimVector(d)
        n = dv.total
        words = content_words(Q, dv)
        mons = [m for deg in range(3) for m in monomials_of_degree(n, deg)]
        ops = []
        for w in permutations(range(n)):
            if inversions(w) > 2:
                continue
            psi = KLROperator.one(Q, n)
            for r in perm_to_word(w):
                psi = psi * KLROperator.psi(Q, n, r)
            for a in mons:
                for i in words:
                    ops.append(psi * KLROperator.from_poly(Q, n, Poly(n, {a: 1}))
                               * KLROperator.e(Q, n, i))
        inputs = [LabeledPoly.from_poly(j, Poly(n, {m: 1}))
                  for j in words
                  for deg in range(4) for m in monomials_of_degree(n, deg)]
        keys: dict = {}
        rows = []
        for op in ops:
            entries: dict = {}
            for idx, f in enumerate(inputs):
                out = op.apply(f)
                for word, poly in out.components.items():
                    for exp, c in poly.terms.items():
                        k = keys.setdefault((idx, word, exp), len(keys))
                        q = Fraction(c)
                        assert q.denominator == 1
                        entries[k] = entries.get(k, 0) + q.numerator
            rows.append(entries)
        mat = [[0] * len(keys) for _ in rows]
        for rix, entries in enumerate(rows):
            for k, c in entries.items():
                mat[rix][k] = c
        assert rank_int(mat, len(keys)) == len(ops), spec


def test_smash_transposition_involutive_and_conjugation():
    s1 = SmashElement.s(2, 1)
    assert smash_mul(s1, s1) == SmashElement.unit(2)
    x1 = SmashElement.x(2, 1)
    conj = smash_mul(smash_mul(s1, x1), s1)
    assert conj == SmashElement.x(2, 2)


def test_smash_product_associative():
    rng = random.Random(19)

    def rand_smash(n: int) -> SmashElement:
        out = SmashElement.scalar(n, 0)
        for _ in range(rng.randint(1, 2)):
            term = SmashElement.from_poly(rand_poly(rng, n, 1))
            for _ in range(rng.randint(0, 2)):
                term = smash_mul(term, SmashElement.s(n, rng.randint(1, n - 1)))
            out = out.add(term)
        return out

    for _ in range(8):
        a, b, c = rand_smash(3), rand_smash(3), rand_smash(3)
        assert smash_mul(smash_mul(a, b), c) == smash_mul(a, smash_mul(b, c))


def reference_smash_mul(n: int, a: dict, b: dict) -> SmashElement:
    """(f.w)(g.v) = f w(g) . wv from Poly primitives, on {perm: Poly} maps."""
    out: dict = {}
    for w, f in a.items():
        for v, g in b.items():
            wv = perm_compose(w, v)
            out[wv] = out.get(wv, Poly.zero(n)).add(f.mul(g.permute(w)))
    return SmashElement(n, out)


def test_smash_mul_matches_poly_reference():
    rng = random.Random(29)
    coeffs = [-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)]

    def rand_parts(n: int) -> dict:
        perms = list(permutations(range(n)))
        parts = {}
        for w in rng.sample(perms, rng.randint(1, min(3, len(perms)))):
            f = Poly.zero(n)
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                f = f.add(Poly.monomial(n, exps, rng.choice(coeffs)))
            parts[w] = f
        return parts

    cases = []
    for n in (2, 3):
        cases += [(n, rand_parts(n), rand_parts(n)) for _ in range(40)]
        # (f.e - f.s1)(g.e + g.s1) = 0 for g symmetric in x1, x2
        e, s1 = tuple(range(n)), (1, 0) + tuple(range(2, n))
        g = Poly.x(n, 1).add(Poly.x(n, 2)).scale(Fraction(3, 2))
        for _ in range(5):
            f = next(iter(rand_parts(n).values()))
            cases.append((n, {e: f, s1: f.neg()}, {e: g, s1: g}))
    zeros = 0
    for n, a, b in cases:
        got = smash_mul(SmashElement(n, a), SmashElement(n, b))
        assert got == reference_smash_mul(n, a, b), (a, b)
        zeros += got.is_zero()
    assert zeros >= 10


def test_labeled_and_smash_rendering():
    m = LabeledPoly(3, {
        (1, 0, 0): Poly(3, {(1, 0, 0): -1, (0, 0, 2): Fraction(1, 2)}),
        (0, 0, 1): Poly(3, {(0, 0, 0): 3, (0, 1, 1): Fraction(-2, 3)}),
        (0, 1, 0): Poly(3, {(2, 1, 0): 1, (0, 0, 1): -1, (1, 0, 0): Fraction(4, 2)}),
    })
    assert str(m) == (
        "[0,0,1] 3 - 2/3*x2*x3 ; [0,1,0] -x3 + 2*x1 + x1^2*x2 ; [1,0,0] 1/2*x3^2 - x1"
    )
    s = SmashElement(3, {
        (0, 1, 2): Poly(3, {(0, 0, 0): -2, (1, 0, 0): 1}),
        (1, 0, 2): Poly(3, {(0, 2, 0): Fraction(1, 3)}),
        (2, 0, 1): Poly(3, {(0, 0, 1): -1, (1, 1, 0): 5}),
        (2, 1, 0): Poly(3, {(0, 0, 0): 1}),
    })
    assert str(s) == "(-2 + x1)*e + (1/3*x2^2)*s1 + (-x3 + 5*x1*x2)*s2*s1 + (1)*s1*s2*s1"
    for cls in (Poly, LabeledPoly, SmashElement):
        assert str(cls.zero(3)) == "0"


def test_labeled_components_view_round_trips():
    rng = random.Random(31)
    words = content_words(A2, DimVector((2, 1)))
    for _ in range(30):
        first = {w: rand_poly(rng, 3) for w in rng.sample(words, 2)}
        second = {w: f if rng.random() < 0.5 else rand_poly(rng, 3) for w, f in first.items()}
        m = LabeledPoly(3, first).sub(LabeledPoly(3, second))
        assert LabeledPoly(3, m.components) == m
        assert all(not f.is_zero() for f in m.components.values())
        for w in first:
            assert (w in m.components) == (first[w] != second[w])


def test_smash_center_dims_match_partition_counts():
    # center = symmetric polynomials; dims at degree j count partitions
    # of j with parts <= n (variables sit in degree 1 here)
    assert smash_center_dims(2, 4) == [1, 1, 2, 2, 3]
    assert smash_center_dims(3, 4) == [1, 1, 2, 3, 4]


def test_symmetric_polynomial_is_central():
    e2 = Poly.x(2, 1).mul(Poly.x(2, 2))
    z = SmashElement.from_poly(e2)
    for g in (SmashElement.s(2, 1), SmashElement.x(2, 1)):
        assert smash_mul(z, g) == smash_mul(g, z)


def test_monomials_of_degree_counts():
    # weak compositions of deg into n parts
    assert len(monomials_of_degree(3, 4)) == 15
    assert monomials_of_degree(1, 5) == [(5,)]
    assert monomials_of_degree(2, 0) == [(0, 0)]


def test_subtraction_is_addition_of_the_negation():
    half = Fraction(1, 2)
    p = Poly(2, {(1, 0): 3, (0, 2): half, (0, 0): -1})
    q = Poly(2, {(1, 0): 3, (1, 1): Fraction(3, 2), (0, 0): -half})
    w, v = (0, 1), (1, 0)
    elements = [
        (p, q),
        (LabeledPoly(2, {w: p, v: q}), LabeledPoly(2, {w: q})),
        (SmashElement(2, {(0, 1): p, (1, 0): q}), SmashElement(2, {(1, 0): p.scale(half)})),
    ]
    for a, b in elements:
        for x, y in ((a, b), (b, a), (a, a)):
            diff = x - y
            assert type(diff) is type(x)
            assert diff == x + (-y) and diff.terms == (x + (-y)).terms
            assert all(c != 0 for c in diff.terms.values())
            assert all(type(c) is int for c in diff.terms.values() if c == int(c))
        assert (a - a).is_zero() and (a - a) == type(a).zero(2)
        assert (a - b) + b == a
