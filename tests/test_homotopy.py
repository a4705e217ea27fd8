"""Bounded complexes of free graded modules and their minimization.

A complex is a finite set of generators (idempotent, internal shift,
cohomological degree) with a differential whose $(i,s) \\to (j,s')$
entry lies in $e_j A e_i$, homogeneous of the degree forced by the
shifts, and squares to zero.  Minimization performs Gaussian
elimination of degree-zero invertible entries; it preserves the
homotopy type, so the Euler symbol (signed generator count per
idempotent and shift) is invariant and a second pass finds nothing
left to cancel.

Truncation splits a complex at a cohomological degree $n$ into upper
and lower parts with an inclusion map; the cone of that inclusion is
homotopy equivalent to the lower part, which is the triangle the
randomized reassembly check exercises.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from quiverchow import cli, homotopy
from quiverchow.homotopy import (
    ChainMap,
    GradedComplex,
    Generator,
    complex_from_json,
    complex_to_json,
    complexes_equal,
    cone,
    euler_symbol,
    identity_map,
    minimize,
    parse_element,
    parse_handle,
    random_complex,
    shift,
    twist,
    validate,
    validate_chain_map,
    weight_truncate,
)
from quiverchow.klrpoly import (
    KLROperator,
    LabeledPoly,
    Poly,
    monomials_of_degree,
    perm_to_word,
    word_offset,
)
from quiverchow.quiver import cartan


HANDLE_SPECS = ("nilhecke:2", "klr:A2:1,1", "klr:cyclic:2:1,1", "smash:2")


def nil2():
    return parse_handle("nilhecke:2")


def two_term():
    # x1 raises internal degree by 2, matching one unit of shift
    h = nil2()
    gens = (Generator((0, 0), 0, 0), Generator((0, 0), 1, 1))
    return GradedComplex(h, gens, {(1, 0): parse_element(h, "x1*e(0,0)")})


def test_parse_handle_accepts_corpus_and_rejects_garbage():
    for spec in HANDLE_SPECS:
        h = parse_handle(spec)
        assert h.name == spec
        assert h.idempotents
    for bad in ("nilhecke:0", "klr:A2:1,1,1", "klr:A2:0,0,3"):
        with pytest.raises(ValueError):
            parse_handle(bad)
    # a spec that does not parse is refused by name, with its form
    for bad, form in (("klr:A2", "klr:<quiver>:<dims>"), ("klr:A2:x", "klr:<quiver>:<dims>"),
                      ("smash:x", "smash:<n>"), ("nilhecke:x", "nilhecke:<n>"),
                      ("nilhecke:", "nilhecke:<n>")):
        with pytest.raises(ValueError, match=f"^handle spec '{bad}' is not of the form {form}$"):
            parse_handle(bad)
    with pytest.raises(ValueError, match="^unknown handle spec 'unknown:1': the forms are "):
        parse_handle("unknown:1")


def test_parse_handle_refuses_a_handle_past_the_input_bound(monkeypatch):
    # words x n! is computed from the spec; nothing is built for a refusal
    def boom(*args):
        raise AssertionError("inputs built before the size check")

    monkeypatch.setattr(homotopy, "content_words", boom)
    monkeypatch.setattr(itertools, "permutations", boom)
    monkeypatch.setattr(itertools, "product", boom)
    for spec, size in (("nilhecke:12", 479001600),
                       ("klr:A3:3,3,3", 1680 * 362880),
                       ("smash:12", 479001600)):
        with pytest.raises(ValueError, match=f"needs {size} inputs") as err:
            parse_handle(spec)
        assert str(homotopy.MAX_HANDLE_INPUTS) in str(err.value)
    # nilhecke:8 (40,320 inputs) is the largest nil Hecke handle allowed
    assert homotopy.MAX_HANDLE_INPUTS == 40320
    homotopy._check_handle_size("nilhecke:8", 1, 8)


def test_parse_element_expressions():
    h = nil2()
    e = parse_element(h, "e(0,0)")
    x = parse_element(h, "x1*e(0,0) + 2*x2")
    assert not h.is_zero(e)
    assert h.is_zero(e + -e)
    assert h.is_zero(x + -x)
    sm = parse_handle("smash:2")
    s1 = parse_element(sm, "s1")
    assert sm.is_zero(s1 * s1 + -sm.unit("e"))
    with pytest.raises(ValueError):
        parse_element(h, "x1 +* x2")
    with pytest.raises(ValueError):
        parse_element(h, "y3")


def test_parse_element_bounds_growth():
    h, sm = nil2(), parse_handle("smash:2")
    for handle in (h, sm):
        # nested exponents multiply; their product is held to MAX_EXPONENT
        assert handle.term_count(parse_element(handle, "(x1^8)^8")) == 1
        with pytest.raises(ValueError, match="nested exponents"):
            parse_element(handle, "((x1)^8)^9")
        with pytest.raises(ValueError, match="nested deeper"):
            parse_element(handle, "-" * 200 + "x1")
    # (x1+x2)^12 has 2^12 formal KLR terms; one more factor is refused
    assert h.term_count(parse_element(h, "(x1+x2)^12")) == 4096
    with pytest.raises(ValueError, match="term pairs"):
        parse_element(h, "(x1+x2)^13")
    # smash elements are reduced, so their terms are monomials: (x1+x2+1)^d
    # has all (d+1)(d+2)/2 monomials of degree at most d
    assert sm.term_count(parse_element(sm, "(x1+x2+1)^40")) == 41 * 42 // 2
    with pytest.raises(ValueError, match="term pairs"):
        parse_element(sm, "(x1+x2+1)^64")


def test_two_term_complex_validates():
    rep = validate(two_term())
    assert rep.ok and not rep.problems


def test_wrong_degree_entry_is_flagged():
    h = nil2()
    gens = (Generator((0, 0), 0, 0), Generator((0, 0), 2, 1))
    c = GradedComplex(h, gens, {(1, 0): parse_element(h, "x1*e(0,0)")})
    rep = validate(c)
    assert not rep.ok
    assert any("homogeneous" in p for p in rep.problems)


def test_square_nonzero_is_flagged():
    h = nil2()
    gens = (Generator((0, 0), 0, 0), Generator((0, 0), 1, 1),
            Generator((0, 0), 2, 2))
    c = GradedComplex(h, gens, {
        (1, 0): parse_element(h, "x1*e(0,0)"),
        (2, 1): parse_element(h, "x1*e(0,0)"),
    })
    rep = validate(c)
    assert not rep.ok
    assert any("d after d" in p for p in rep.problems)


def test_shift_round_trip_and_signs():
    c = two_term()
    s = shift(c, 1)
    assert all(g.cohdeg == orig.cohdeg - 1
               for g, orig in zip(s.generators, c.generators))
    # odd shift negates the differential
    ((key, val),) = tuple(s.diff.items())
    assert s.handle.is_zero(val + c.diff[key])
    back = shift(s, -1)
    assert complexes_equal(back, c)


def test_twist_moves_internal_grading():
    c = two_term()
    t = twist(c, 2)
    assert all(g.shift == orig.shift + 2
               for g, orig in zip(t.generators, c.generators))
    assert complexes_equal(twist(t, -2), c)
    assert validate(t).ok


def test_euler_symbol_counts_signed_generators():
    h = nil2()
    gens = (Generator((0, 0), 0, 0), Generator((0, 0), 0, 1),
            Generator((0, 0), 3, 1))
    c = GradedComplex(h, gens, {})
    sym = euler_symbol(c)
    # the two shift-0 generators cancel; the shift-3 one survives with sign -1
    assert sym == {((0, 0), 3): -1}
    assert euler_symbol(shift(c, 1)) == {((0, 0), 3): 1}


def test_cone_of_identity_minimizes_to_zero():
    for spec in HANDLE_SPECS:
        h = parse_handle(spec)
        rng = random.Random(7)
        c = random_complex(h, rng)
        mapped = cone(identity_map(c))
        assert validate(mapped).ok
        assert len(minimize(mapped)) == 0, spec


def test_cone_rejects_non_chain_map():
    h = nil2()
    a = two_term()
    b = two_term()
    # a map hitting only the degree-0 generator fails to commute with d
    bad = ChainMap(a, b, {(0, 0): parse_element(h, "e(0,0)")})
    assert not validate_chain_map(bad).ok
    with pytest.raises(ValueError):
        cone(bad)


def test_minimize_cancels_unit_pair():
    h = nil2()
    gens = (Generator((0, 0), 0, 0), Generator((0, 0), 0, 1),
            Generator((0, 0), 1, 1))
    c = GradedComplex(h, gens, {
        (1, 0): parse_element(h, "e(0,0)"),
        (2, 0): parse_element(h, "x1*e(0,0)"),
    })
    m = minimize(c)
    assert len(m) == 1
    assert m.generators[0].shift == 1
    assert not m.diff


def test_minimize_three_term_schur_complement():
    # eliminating the unit entry rewires the remaining corner
    h = nil2()
    gens = (Generator((0, 0), 0, 0),
            Generator((0, 0), 0, 1), Generator((0, 0), 1, 1),
            Generator((0, 0), 1, 2))
    c = GradedComplex(h, gens, {
        (1, 0): parse_element(h, "e(0,0)"),
        (2, 0): parse_element(h, "x1*e(0,0)"),
        (3, 2): parse_element(h, "e(0,0)"),
        (3, 1): parse_element(h, "-x1*e(0,0)"),
    })
    assert validate(c).ok
    m = minimize(c)
    assert validate(m).ok
    assert len(m) == 0  # both unit pairs cancel and the correction vanishes


def _schur_corner_is_exact() -> bool:
    # p -> q is the unit, so cancelling it leaves t <- s with the correction
    # -d[t,p] e^{-1} d[q,s] = -x2*x1*e(0,0), a nonzero entry
    h = nil2()
    p, s, q, t = (Generator((0, 0), 0, 0), Generator((0, 0), -1, 0),
                  Generator((0, 0), 0, 1), Generator((0, 0), 1, 1))
    c = GradedComplex(h, (p, s, q, t), {
        (2, 0): parse_element(h, "e(0,0)"),
        (2, 1): parse_element(h, "x1*e(0,0)"),
        (3, 0): parse_element(h, "x2*e(0,0)"),
    })
    assert validate(c).ok
    m = minimize(c)
    assert m.generators == (s, t)
    assert list(m.diff) == [(1, 0)]
    return h.equal(m.diff[1, 0], parse_element(h, "-x2*x1*e(0,0)"))


def test_minimize_applies_the_exact_schur_correction():
    assert _schur_corner_is_exact()


def test_schur_correction_check_catches_a_wrong_inverse(monkeypatch):
    # the control: twice the inverse still cancels the pair, so only the
    # corrected entry shows the slip
    real = homotopy.KLRHandle.invert_degree_zero

    def doubled(self, a, frm, to):
        inv = real(self, a, frm, to)
        return None if inv is None else inv.scale(2)

    monkeypatch.setattr(homotopy.KLRHandle, "invert_degree_zero", doubled)
    assert not _schur_corner_is_exact()


def test_minimize_is_idempotent_and_euler_invariant():
    for spec in HANDLE_SPECS:
        h = parse_handle(spec)
        for t in range(30):
            rng = random.Random(f"unit:{spec}:{t}")
            c = random_complex(h, rng)
            assert validate(c).ok
            m = minimize(c)
            assert validate(m).ok
            assert euler_symbol(m) == euler_symbol(c), spec
            again = minimize(m)
            assert complexes_equal(again, m), spec


def test_weight_truncate_partitions_generators():
    c = two_term()
    upper, lower, inc = weight_truncate(c, 0)
    assert all(g.cohdeg >= 1 for g in upper.generators)
    assert all(g.cohdeg <= 0 for g in lower.generators)
    assert validate_chain_map(inc).ok
    assert len(upper) + len(lower) == len(c)


def test_truncation_reassembly_triangle():
    for spec in HANDLE_SPECS:
        h = parse_handle(spec)
        for t in range(15):
            rng = random.Random(f"tri:{spec}:{t}")
            c = random_complex(h, rng)
            degs = sorted({g.cohdeg for g in c.generators})
            n = degs[len(degs) // 2]
            upper, lower, inc = weight_truncate(c, n)
            reassembled = minimize(cone(inc))
            assert complexes_equal(reassembled, minimize(lower)), spec


def test_json_round_trip_and_determinism():
    for spec in HANDLE_SPECS:
        h = parse_handle(spec)
        rng = random.Random(f"json:{spec}")
        c = random_complex(h, rng)
        doc = complex_to_json(c)
        assert doc["schema"] == "complex/1"
        rt = complex_from_json(doc, h)
        assert complexes_equal(rt, c)
        assert json.dumps(complex_to_json(rt)) == json.dumps(doc)
        # handle can be recovered from the document itself
        rt2 = complex_from_json(json.loads(json.dumps(doc)))
        assert complexes_equal(rt2, c)


def test_complexes_equal_ignores_generator_order():
    h = nil2()
    gens = (Generator((0, 0), 0, 0), Generator((0, 0), 1, 1))
    c1 = GradedComplex(h, gens, {(1, 0): parse_element(h, "x1*e(0,0)")})
    swapped = (gens[1], gens[0])
    c2 = GradedComplex(h, swapped, {(0, 1): parse_element(h, "x1*e(0,0)")})
    assert complexes_equal(c1, c2)
    c3 = GradedComplex(h, gens, {(1, 0): parse_element(h, "2*x1*e(0,0)")})
    assert not complexes_equal(c1, c3)


def test_complexes_equal_refuses_too_many_matchings():
    # seven generators share one key: 7! = 5040 matchings exceed the bound
    h = nil2()
    gens = (Generator((0, 0), 0, 0),) * 7 + (Generator((0, 0), 1, 1),)

    def cx(coeffs):
        return GradedComplex(h, gens, {
            (7, k): parse_element(h, f"{c}*x1*e(0,0)") for k, c in enumerate(coeffs)
        })

    assert complexes_equal(cx(range(1, 8)), cx(range(1, 8)))
    with pytest.raises(ValueError, match="undecided"):
        complexes_equal(cx(range(1, 8)), cx(range(7, 0, -1)))


def test_smash_handle_inverts_transpositions():
    h = parse_handle("smash:2")
    gens = (Generator("e", 0, 0), Generator("e", 0, 1))
    c = GradedComplex(h, gens, {(1, 0): parse_element(h, "s1")})
    assert validate(c).ok
    assert len(minimize(c)) == 0


def test_random_complexes_are_valid():
    for spec in HANDLE_SPECS:
        h = parse_handle(spec)
        for t in range(20):
            c = random_complex(h, random.Random(f"valid:{spec}:{t}"))
            assert validate(c).ok, spec


def test_nilhecke5_longest_element_is_nonzero():
    # psi_{w0} has polynomial degree 10 on its nonzero inputs; a zero test
    # on monomials of degree <= 6 alone calls it zero
    h = parse_handle("nilhecke:5")
    w0 = parse_element(h, "psi1*psi2*psi1*psi3*psi2*psi1*psi4*psi3*psi2*psi1")
    assert not h.is_zero(w0)
    assert h.is_zero(w0 * w0)
    c = GradedComplex(h, [Generator(h.idempotents[0], 0, 0)], {})
    assert complex_to_json(c)["equality_bound"] is None


def _filtered_block_basis(h, frm, to, degree):
    """block_basis by filtering all n! permutations, with each basis element
    written out as one raw atom string."""
    n = h.n
    out = []
    for w in itertools.permutations(range(n)):
        img = [None] * n
        for k in range(n):
            img[w[k]] = frm[k]
        if tuple(img) != tuple(to):
            continue
        deg_w = sum(-cartan(h.Q, frm[k], frm[l])
                    for k in range(n) for l in range(k + 1, n) if w[k] > w[l])
        rem = degree - deg_w
        if rem < 0 or rem % 2:
            continue
        psi_atoms = tuple(("psi", r) for r in perm_to_word(w))
        for exps in monomials_of_degree(n, rem // 2):
            x_atoms = tuple(("x", k + 1) for k, e in enumerate(exps) for _ in range(e))
            atoms = psi_atoms + x_atoms + (("e", tuple(frm)),)
            out.append(KLROperator(h.Q, n, ((1, atoms),)))
    return out


def test_block_basis_matches_the_permutation_filter():
    # element by element and in order: random complexes draw from it
    for spec in ("nilhecke:3", "klr:A2:2,1", "klr:cyclic:2:1,1"):
        h = parse_handle(spec)
        for frm in h.idempotents:
            for to in h.idempotents:
                for degree in range(-2, 5):
                    want = _filtered_block_basis(h, frm, to, degree)
                    assert h.block_basis(frm, to, degree) == want, (spec, frm, to, degree)


def _reference_inputs(h):
    """Every labeled monomial of degree <= max(6, n(n-1)/2)."""
    bound = max(6, h.n * (h.n - 1) // 2)
    return [
        (w, exps, LabeledPoly.from_poly(w, Poly.monomial(h.n, exps)))
        for w in h.idempotents
        for deg in range(bound + 1)
        for exps in monomials_of_degree(h.n, deg)
    ]


def _reference_outputs(inputs, a):
    return [(w, exps, a.apply(f)) for w, exps, f in inputs]


def _reference_is_zero(outputs):
    return all(out.is_zero() for _, _, out in outputs)


def _reference_block_homogeneous(h, outputs, frm, to, degree):
    for w, exps, out in outputs:
        if w != frm:
            if not out.is_zero():
                return False
        elif set(out.components) - {to}:
            return False
        elif out.offset_degrees(h.Q) - {2 * sum(exps) + word_offset(h.Q, w) + degree}:
            return False
    return True


@pytest.mark.parametrize(
    "spec",
    ["nilhecke:2", "nilhecke:3", "klr:A2:1,1", "klr:A2:2,1", "klr:cyclic:2:1,1"],
)
def test_exact_decisions_agree_with_larger_input_set(spec):
    h = parse_handle(spec)
    inputs = _reference_inputs(h)
    rng = random.Random(f"cross:{spec}")
    pool = []  # (frm, to, degree, element)
    for frm, to in itertools.product(h.idempotents, repeat=2):
        for degree in range(-2, 3):
            el = h.random_block_element(rng, frm, to, degree)
            if el is not None:
                pool.append((frm, to, degree, el))
    corpus = list(pool)
    for _ in range(12):
        (f1, t1, d1, a), (f2, t2, d2, b) = rng.choice(pool), rng.choice(pool)
        if t1 == f2:
            corpus.append((f1, t2, d1 + d2, b * a))
        corpus.append((f1, t1, d1, a - b))
    zero_seen, homog_seen, inverses = set(), set(), 0
    for frm, to, degree, el in corpus:
        outputs = _reference_outputs(inputs, el)
        zero = h.is_zero(el)
        assert zero == _reference_is_zero(outputs), (spec, str(el))
        zero_seen.add(zero)
        for d in (degree, degree + 2):
            homog = h.is_block_homogeneous(el, frm, to, d)
            assert homog == _reference_block_homogeneous(h, outputs, frm, to, d), (
                spec, str(el), d)
            homog_seen.add(homog)
    # the identity plus a degree-0 element is often invertible
    for frm, to, degree, el in pool:
        if degree != 0:
            continue
        for a in (el, el + h.unit(frm)) if frm == to else (el,):
            inv = h.invert_degree_zero(a, frm, to)
            if inv is not None:
                inverses += 1
                for side, unit in ((inv * a, h.unit(frm)), (a * inv, h.unit(to))):
                    assert _reference_is_zero(_reference_outputs(inputs, side - unit)), spec
    assert zero_seen == {True, False} and homog_seen == {True, False}, spec
    assert inverses, spec


@pytest.mark.parametrize("spec", ["nilhecke:2", "klr:A2:1,1"])
def test_an_atom_past_the_last_strand_is_refused(spec):
    # no constructor emits x_{n+1}; built by hand, it reaches the input tag
    # of a decision's fold, which must raise rather than answer
    h = parse_handle(spec)
    bad = KLROperator(h.Q, h.n, ((1, (("x", h.n + 1),)),))
    frm = to = h.idempotents[0]
    for decide in (
        lambda: h.is_zero(bad),
        lambda: h.is_block_homogeneous(bad, frm, to, 2),
        lambda: h.invert_degree_zero(bad, frm, to),
    ):
        with pytest.raises((IndexError, TypeError)):
            decide()


# the handle methods whose answers the handle memoises
MEMOISED = ("is_zero", "is_block_homogeneous", "invert_degree_zero", "block_basis")


def _recorded_suite_case(monkeypatch, spec):
    """Run the `homotopy_cases(25, 0)` case of spec and return its handle
    and every (method, arguments) the case asked of it, in order."""
    asked, handles = [], []

    def recording(text):
        h = parse_handle(text)
        for name in MEMOISED:
            def record(*args, _method=getattr(h, name), _name=name):
                asked.append((_name, args))
                return _method(*args)
            setattr(h, name, record)
        handles.append(h)
        return h

    monkeypatch.setattr(cli, "parse_handle", recording)
    ok, detail = dict(cli.homotopy_cases(25, 0))[spec]()
    assert ok, detail
    assert len(handles) == 1
    return handles[0], asked


@pytest.mark.parametrize("spec", cli.HOMOTOPY_HANDLES)
def test_memoised_decisions_equal_a_fresh_handles(monkeypatch, spec):
    h, asked = _recorded_suite_case(monkeypatch, spec)
    distinct = list(dict.fromkeys(asked))
    assert len(distinct) < len(asked), spec  # the case repeats questions
    # every distinct question once more at a wrong degree and in every block
    wrong_degree, extra = [], []
    blocks = list(itertools.product(h.idempotents, repeat=2))
    for name, args in distinct:
        if name == "is_block_homogeneous":
            a, _, _, degree = args
            wrong_degree.append((name, args[:3] + (degree + 1,)))
            extra += [(name, (a, frm, to, degree)) for frm, to in blocks]
        elif name == "invert_degree_zero":
            extra += [(name, (args[0], frm, to)) for frm, to in blocks]
    fresh = {}
    for name, args in asked + wrong_degree + extra:
        # the handle's memoised answer, not the recorder's
        answer = getattr(type(h), name)(h, *args)
        if (name, args) not in fresh:
            fresh[name, args] = getattr(parse_handle(spec), name)(*args)
        assert answer == fresh[name, args], (spec, name, args)
    inverses = {fresh[q] is None for q in fresh if q[0] == "invert_degree_zero"}
    assert inverses == {True, False}, spec
    assert False in {fresh[q] for q in wrong_degree}, spec


def test_a_second_handle_starts_with_an_empty_memo():
    for spec in cli.HOMOTOPY_HANDLES:
        first = parse_handle(spec)
        c = random_complex(first, random.Random(f"memo:{spec}"))
        assert len(minimize(cone(identity_map(c)))) == 0
        assert first._memo, spec
        assert parse_handle(spec)._memo == {}, spec
    # keyed on the value: an equal element built anew finds the same answer
    h = parse_handle("nilhecke:2")
    idem = h.idempotents[0]
    a = parse_element(h, "2*e(0,0)")
    b = parse_element(h, "2*e(0,0)")
    assert a is not b
    inv = h.invert_degree_zero(a, idem, idem)
    assert inv is not None and h.invert_degree_zero(b, idem, idem) is inv
