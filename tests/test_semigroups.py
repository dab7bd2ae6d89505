import ast
import importlib
import inspect
import itertools
import pickle
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_minimal_left_ideals, independent_assoc_ok

import semsize.literal
import semsize.theorems
from semsize import (
    AssociativityError,
    DimensionError,
    FinSemigroup,
    NotAGroup,
    NotASubsemigroup,
    PrincipalFilter,
    SizeLimitExceeded,
    UnknownFamily,
    automorphisms,
    build_family,
    build_from_table,
    delta_tau,
    direct_product,
    enumerate_semigroups,
    is_subgroup,
    left_quotient,
    mask_of,
    minimal_left_ideals,
    product_set,
    right_translate,
    semigroup_from_spec,
    set_quotient,
    subgroups,
    trace_set,
    translate_set,
    trivial_filter,
)
from semsize.catalog import build_catalog, default_catalog, entry_for
from semsize.masks import elements
from semsize.semigroups import (
    FAMILY_NAMES,
    associativity_witness,
    subset_is_closed,
)


class TestBuildFromTable:
    def test_z2(self):
        S = build_from_table(2, [[0, 1], [1, 0]])
        assert S.is_group and S.identity == 0

    def test_right_zero_has_no_identity(self):
        S = build_from_table(2, [[0, 1], [0, 1]])
        # neither candidate satisfies e*x = x*e = x
        assert S.identity is None and not S.is_group

    def test_or_table_passes_the_triple_scan(self):
        # the full triple check is the oracle for acceptance of this table
        table = [[0, 1], [1, 1]]
        assert independent_assoc_ok(2, table)
        S = build_from_table(2, table)
        assert S.order == 2

    def test_nonassociative_rejected_with_witness(self):
        table = [[0, 0], [1, 0]]
        assert not independent_assoc_ok(2, table)
        with pytest.raises(AssociativityError) as exc:
            build_from_table(2, table)
        a, b, c = exc.value.triple
        lhs = table[table[a][b]][c]
        rhs = table[a][table[b][c]]
        assert lhs != rhs

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            build_from_table(2, [[0, 1]])
        with pytest.raises(DimensionError):
            build_from_table(2, [[0, 1], [0, 2]])

    @pytest.mark.parametrize(
        "order, table",
        [
            (2, [[False, True], [True, False]]),
            (2, [[0, 1], [1, False]]),
            (True, [[0]]),
            (1.0, [[0]]),
            (2, [[0, 1.0], [1, 0]]),
        ],
    )
    def test_non_int_order_or_entry_rejected(self, order, table):
        # bool is an int subclass: a table of booleans is not a Cayley table
        with pytest.raises(DimensionError):
            build_from_table(order, table)

    @pytest.mark.parametrize("table", [None, [[0, 1], 5]], ids=["table", "row"])
    def test_table_or_row_that_is_no_list_is_a_dimension_error(self, table):
        with pytest.raises(DimensionError, match="must be a list"):
            build_from_table(2, table)

    def test_is_group_is_an_identity_with_two_sided_inverses(self):
        for order in (1, 2, 3):
            for S in enumerate_semigroups(order):
                t, rng = S.table, range(order)
                group = any(
                    all(t[e][x] == t[x][e] == x for x in rng)
                    and all(any(t[x][y] == t[y][x] == e for y in rng) for x in rng)
                    for e in rng
                )
                assert S.is_group == group, S.table


class TestFamilies:
    def test_cyclic4(self, z4):
        assert z4.is_group and z4.order == 4 and z4.identity == 0

    def test_right_zero_law(self, rz3):
        assert all(rz3.table[i][j] == j for i in range(3) for j in range(3))
        assert not rz3.is_group

    def test_direct_product_matches_crt(self):
        prod = semigroup_from_spec("product:cyclic:2,cyclic:3")
        z6 = semigroup_from_spec("cyclic:6")
        # k -> (k mod 2, k mod 3), packed as (k%2)*3 + (k%3)
        phi = [(k % 2) * 3 + (k % 3) for k in range(6)]
        assert prod.is_group and prod.order == 6
        for i in range(6):
            for j in range(6):
                assert prod.table[phi[i]][phi[j]] == phi[z6.table[i][j]]

    def test_quaternion8_signature(self):
        q8 = build_family("quaternion8")
        assert q8.is_group and q8.order == 8
        e = q8.identity
        involutions = [x for x in range(8) if x != e and q8.table[x][x] == e]
        assert len(involutions) == 1  # only -1 squares to the identity

    def test_dihedral_and_symmetric(self):
        d4 = build_family("dihedral", 4)
        s3 = build_family("symmetric", 3)
        assert d4.order == 8 and d4.is_group
        assert s3.order == 6 and s3.is_group
        assert any(
            s3.table[a][b] != s3.table[b][a] for a in range(6) for b in range(6)
        )

    def test_full_transformation_monoid(self):
        t2 = build_family("full_transformation", 2)
        assert t2.order == 4 and t2.identity is not None and not t2.is_group

    def test_every_family_is_associative(self):
        specs = [
            "cyclic:5",
            "dihedral:3",
            "symmetric:4",
            "quaternion8",
            "rightzero:4",
            "leftzero:4",
            "null:5",
            "fulltransformation:3",
            "product:cyclic:2,rightzero:2",
        ]
        for spec in specs:
            S = semigroup_from_spec(spec)
            assert associativity_witness(S.order, S.table) is None, spec

    def test_unknown_and_oversize(self):
        with pytest.raises(UnknownFamily):
            build_family("bogus", 4)
        with pytest.raises(UnknownFamily):
            semigroup_from_spec("cyclic")  # missing parameter
        with pytest.raises(SizeLimitExceeded):
            build_family("symmetric", 6)
        with pytest.raises(SizeLimitExceeded):
            build_family("full_transformation", 5)
        assert "cyclic" in FAMILY_NAMES

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "empty family spec"),
            ("product:", "product spec needs factors: 'product:'"),
            ("cyclic:a", "bad family parameters in 'cyclic:a'"),
            ("cyclic:0", "family parameter must be >= 1, got 0"),
        ],
    )
    def test_bad_family_specs(self, spec, message):
        with pytest.raises(UnknownFamily, match=re.escape(message)):
            semigroup_from_spec(spec)

    def test_direct_product_needs_a_factor(self):
        with pytest.raises(UnknownFamily, match="needs at least one factor"):
            direct_product([])

    def test_every_family_builds_up_to_the_order_limit_and_no_further(self):
        # FAMILY_ORDER_LIMIT is the one size limit: the largest parameter of
        # each one-parameter family whose order is at most 256 builds, and
        # the next is refused before any element is listed
        largest = {  # family: (parameter, its order)
            "cyclic": (256, 256),
            "dihedral": (128, 256),
            "symmetric": (5, 120),
            "fulltransformation": (4, 256),
            "rightzero": (256, 256),
            "leftzero": (256, 256),
            "null": (256, 256),
        }
        assert set(FAMILY_NAMES) == set(largest) | {"quaternion8", "product"}
        for name, (n, order) in largest.items():
            assert build_family(name, n).order == order <= 256, name
            with pytest.raises(SizeLimitExceeded, match="family limit 256"):
                build_family(name, n + 1)


class TestSetArithmetic:
    def test_left_quotient_examples(self, z4, rz3):
        assert left_quotient(z4, 1, mask_of([0, 2])) == mask_of([1, 3])
        for spec in ("cyclic:5", "fulltransformation:2"):  # group and monoid
            M = semigroup_from_spec(spec)
            for B in range(M.full_mask + 1):
                assert left_quotient(M, M.identity, B) == B
        rz2 = semigroup_from_spec("rightzero:2")
        assert left_quotient(rz2, 0, mask_of([1])) == mask_of([1])

    def test_left_quotient_round_trip(self, z6, rz3, null3):
        # definitional: x in a^-1 B  iff  a*x in B
        for S in (z6, rz3, null3):
            for a in range(S.order):
                for B in (0, 1, mask_of([0, 2]), S.full_mask):
                    q = left_quotient(S, a, B)
                    for x in range(S.order):
                        assert bool((q >> x) & 1) == bool(
                            (B >> S.table[a][x]) & 1
                        )

    def test_set_quotient_examples(self, z4):
        assert set_quotient(z4, 0, mask_of([1, 2])) == 0
        assert set_quotient(z4, mask_of([1, 2]), mask_of([0])) == mask_of([2, 3])
        for a in range(4):
            for B in range(16):
                assert set_quotient(z4, 1 << a, B) == left_quotient(z4, a, B)

    def test_set_quotient_monotone(self, z6):
        A, A2 = mask_of([1]), mask_of([1, 2])
        B, B2 = mask_of([0, 3]), mask_of([0, 3, 4])
        small = set_quotient(z6, A, B)
        big = set_quotient(z6, A2, B2)
        assert small | big == big

    def test_delta_tau_examples(self, z4):
        # under the trivial filter delta(A) is A*A^-1 on a group
        tau = trivial_filter(z4)
        assert delta_tau(z4, tau, mask_of([0, 1])) == mask_of([0, 1, 3])
        z3 = semigroup_from_spec("cyclic:3")
        assert delta_tau(z3, trivial_filter(z3), mask_of([1, 2])) == z3.full_mask
        assert delta_tau(z4, tau, mask_of([z4.identity])) == mask_of([0])

    def test_group_quotient_is_inverse_translate(self, z6):
        for g in range(6):
            ginv = z6.table[g].index(z6.identity)
            for B in range(0, 64, 5):
                assert left_quotient(z6, g, B) == translate_set(z6, ginv, B)

    def test_product_set(self, z4):
        assert product_set(z4, mask_of([1, 2]), mask_of([0, 1])) == mask_of(
            [1, 2, 3]
        )
        assert product_set(z4, 0, z4.full_mask) == 0


class TestMinimalLeftIdeals:
    def test_group_has_only_itself(self, z6):
        assert minimal_left_ideals(z6) == [z6.full_mask]

    def test_right_zero_singletons(self, rz3):
        assert minimal_left_ideals(rz3) == [1, 2, 4]

    def test_null_has_unique_zero_ideal(self, null3):
        assert minimal_left_ideals(null3) == [mask_of([0])]

    def test_within_subgroup(self, z6):
        sub = mask_of([0, 2, 4])
        assert minimal_left_ideals(z6, within=sub) == [sub]

    def test_not_a_subsemigroup(self, z4):
        with pytest.raises(NotASubsemigroup):
            minimal_left_ideals(z4, within=mask_of([1]))

    def test_agrees_with_brute_force_on_small_families(self):
        specs = [
            "cyclic:2", "cyclic:3", "cyclic:4",
            "rightzero:2", "rightzero:3", "rightzero:4",
            "leftzero:2", "leftzero:3", "leftzero:4",
            "null:2", "null:3", "null:4",
            "symmetric:2", "dihedral:2", "fulltransformation:2",
            "product:cyclic:2,cyclic:2",
        ]
        for spec in specs:
            S = semigroup_from_spec(spec)
            got = [frozenset(elements(m)) for m in minimal_left_ideals(S)]
            expected = [frozenset(L) for L in brute_minimal_left_ideals(S)]
            assert sorted(got, key=sorted) == expected, spec

    def test_pairwise_disjoint(self):
        for spec in ("rightzero:4", "fulltransformation:2", "null:4"):
            S = semigroup_from_spec(spec)
            ideals = minimal_left_ideals(S)
            for i, L in enumerate(ideals):
                for M in ideals[i + 1 :]:
                    assert L & M == 0


class TestAutomorphisms:
    def test_counts(self, z4, rz3):
        assert len(automorphisms(z4)) == 2
        assert len(automorphisms(rz3)) == 6
        assert len(automorphisms(semigroup_from_spec("cyclic:2"))) == 1

    def test_s3_has_six(self):
        assert len(automorphisms(semigroup_from_spec("symmetric:3"))) == 6

    def test_preserve_table_and_compose(self, z6):
        autos = automorphisms(z6)
        assert tuple(range(6)) in autos
        for p in autos:
            for a in range(6):
                for b in range(6):
                    assert p[z6.table[a][b]] == z6.table[p[a]][p[b]]
        for p in autos:
            for q in autos:
                assert tuple(p[q[i]] for i in range(6)) in autos

    def test_more_than_720_automorphisms_is_a_limit(self):
        # leftzero:7 has 7! = 5040: the search stops at the 721st
        with pytest.raises(SizeLimitExceeded):
            automorphisms(semigroup_from_spec("leftzero:7"))

    def test_order_24_structures_are_searched(self):
        assert automorphisms(semigroup_from_spec("cyclic:24")) == [
            tuple(u * x % 24 for x in range(24)) for u in (1, 5, 7, 11, 13, 17, 19, 23)
        ]
        assert len(automorphisms(semigroup_from_spec("symmetric:4"))) == 24
        assert len(automorphisms(semigroup_from_spec("fulltransformation:3"))) == 6

    def test_matches_brute_force_in_lexicographic_order(self):
        # every labeled semigroup of order <= 3 and every family up to order 6
        semigroups = [
            e.semigroup for e in build_catalog("default") if e.semigroup.order <= 6
        ]
        assert len(semigroups) == 135
        for S in semigroups:
            n, t = S.order, S.table
            reference = [
                p
                for p in itertools.permutations(range(n))
                if all(p[t[a][b]] == t[p[a]][p[b]] for a in range(n) for b in range(n))
            ]
            assert automorphisms(S) == reference, S.name
        assert len(automorphisms(semigroup_from_spec("rightzero:6"))) == 720
        assert len(automorphisms(semigroup_from_spec("leftzero:6"))) == 720

    def test_cyclic12_is_multiplication_by_the_units(self):
        assert automorphisms(semigroup_from_spec("cyclic:12")) == [
            tuple(u * x % 12 for x in range(12)) for u in (1, 5, 7, 11)
        ]


class TestEnumeration:
    def test_counts_match_independent_filter(self):
        # counts frozen from the exhaustive filter's output
        assert sum(1 for _ in enumerate_semigroups(1)) == 1
        assert sum(1 for _ in enumerate_semigroups(2)) == 8
        assert sum(1 for _ in enumerate_semigroups(3)) == 113

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_tables_and_names_match_the_exhaustive_filter(self, order):
        # the pruned search against every table filtered in lexicographic
        # order: a reordering would rename n{order}-k in every golden
        rows = range(order)
        want = []
        for flat in itertools.product(rows, repeat=order * order):
            table = tuple(flat[i * order : (i + 1) * order] for i in rows)
            if independent_assoc_ok(order, table):
                want.append((f"n{order}-{len(want)}", table))
        got = [(S.name, S.table) for S in enumerate_semigroups(order)]
        assert got == want

    def test_all_emitted_tables_are_associative(self):
        for S in enumerate_semigroups(2):
            assert independent_assoc_ok(2, S.table)

    def test_limit(self):
        with pytest.raises(SizeLimitExceeded):
            next(enumerate_semigroups(4))


def _brute_subgroups(S):
    """Every mask holding e that is closed under the product and inverses,
    by a scan of all 2^n masks."""
    n, t, e = S.order, S.table, S.identity
    found = []
    for m in range(1, 1 << n):
        els = [x for x in range(n) if m >> x & 1]
        if (
            m >> e & 1
            and all(m >> t[a][b] & 1 for a in els for b in els)
            and all(any(t[a][b] == e for b in els) for a in els)
        ):
            found.append(m)
    return found


def test_subgroups_match_brute_force_on_the_default_groups():
    groups = {e.semigroup for e in default_catalog() if e.semigroup.is_group}
    assert len(groups) == 18
    for S in groups:
        want = _brute_subgroups(S)
        assert subgroups(S) == want, S.name
        # is_subgroup needs no inverse test: closed and non-empty suffices
        assert [m for m in range(1 << S.order) if is_subgroup(S, m)] == want


def test_subgroup_counts_at_order_24():
    assert len(subgroups(semigroup_from_spec("symmetric:4"))) == 30
    assert len(subgroups(semigroup_from_spec("cyclic:24"))) == 8


def _closure_per_point_subgroups(S):
    """`subgroups` closing H | {g} for every g outside each subgroup H, not
    for one g per coset H*g."""
    found = {1 << S.identity}
    todo = list(found)
    while todo:
        H = todo.pop()
        for g in range(S.order):
            if H >> g & 1:
                continue
            X = H | 1 << g
            K = new = X
            while new:
                new = product_set(S, new, X) & ~K
                K |= new
            if K not in found:
                found.add(K)
                todo.append(K)
    return sorted(found)


def test_one_closure_per_coset_finds_every_subgroup():
    groups = {e.semigroup for e in default_catalog() if e.semigroup.is_group}
    groups.add(semigroup_from_spec("symmetric:4"))
    for S in groups:
        assert subgroups(S) == _closure_per_point_subgroups(S), S.name


def test_subgroups_of_a_non_group_are_refused(null3):
    with pytest.raises(NotAGroup, match="subgroup enumeration needs a group"):
        subgroups(null3)


@pytest.mark.parametrize(
    "spec, message", [("", "empty catalog spec"), ("order<=x", "bad catalog spec")]
)
def test_bad_catalog_specs(spec, message):
    with pytest.raises(UnknownFamily, match=message):
        build_catalog(spec)


@pytest.mark.parametrize("spec", ["null:7", "rightzero:7", "leftzero:8"])
def test_a_non_group_above_order_6_has_only_the_full_base(spec):
    S = semigroup_from_spec(spec)
    assert not S.is_group
    assert entry_for(S).bases == (S.full_mask,)


def test_symmetric_5_has_156_subgroups():
    assert len(subgroups(semigroup_from_spec("symmetric:5"))) == 156


def test_subgroups_of_z6(z6):
    got = subgroups(z6)
    assert mask_of([0]) in got
    assert mask_of([0, 3]) in got
    assert mask_of([0, 2, 4]) in got
    assert z6.full_mask in got
    assert len(got) == 4


# ---------------------------------------------------------------------------
# the set arithmetic over the Cayley table

# orders 1 to 256, families with and without an identity, up to the two
# largest a family builds
TABLE_SPECS = (
    "cyclic:1",
    "rightzero:3",
    "null:7",
    "dihedral:4",
    "cyclic:9",
    "leftzero:11",
    "cyclic:12",
    "dihedral:8",
    "product:cyclic:3,cyclic:6",
    "symmetric:4",
    "fulltransformation:3",
    "cyclic:256",
    "fulltransformation:4",
)
TABLE_SEMIGROUPS = {spec: semigroup_from_spec(spec) for spec in TABLE_SPECS}


def _set_mask(xs):
    return sum(1 << x for x in set(xs))


def _table_ops(S, a, A, B):
    return {
        "left_quotient": left_quotient(S, a, B),
        "trace_set": trace_set(S, A, a),
        "translate_set": translate_set(S, a, B),
        "right_translate": right_translate(S, B, a),
        "set_quotient": set_quotient(S, A, B),
        "product_set": product_set(S, A, B),
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_SPECS), st.data())
def test_table_ops_match_loops_over_the_cayley_table(spec, data):
    S = TABLE_SEMIGROUPS[spec]
    n, t = S.order, S.table
    a = data.draw(st.integers(0, n - 1))
    A = data.draw(st.integers(0, S.full_mask))
    B = data.draw(st.integers(0, S.full_mask))
    As = [x for x in range(n) if A >> x & 1]
    Bs = [x for x in range(n) if B >> x & 1]
    assert _table_ops(S, a, A, B) == {
        "left_quotient": _set_mask(x for x in range(n) if t[a][x] in Bs),
        "trace_set": _set_mask(x for x in range(n) if t[x][a] in As),
        "translate_set": _set_mask(t[a][b] for b in Bs),
        "right_translate": _set_mask(t[b][a] for b in Bs),
        "set_quotient": _set_mask(
            x for x in range(n) if any(t[c][x] in Bs for c in As)
        ),
        "product_set": _set_mask(t[c][b] for c in As for b in Bs),
    }


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_a_bit_past_the_order_raises_index_error(spec):
    S = TABLE_SEMIGROUPS[spec]
    for past in (1 << S.order, (1 << S.order + 5) | 1):
        calls = (
            lambda: left_quotient(S, 0, past),
            lambda: trace_set(S, past, 0),
            lambda: translate_set(S, 0, past),
            lambda: right_translate(S, past, 0),
            lambda: set_quotient(S, past, 1),
            lambda: set_quotient(S, 1, past),
            lambda: product_set(S, past, 1),
            lambda: product_set(S, 1, past),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()


def test_a_pickle_holds_only_the_table_and_name():
    S = semigroup_from_spec("cyclic:12")
    payload = pickle.dumps(S)
    assert S.__reduce__() == (type(S), (S.table, S.name))
    # the class reference is all the payload adds to the table and name
    assert len(payload) < len(pickle.dumps((S.table, S.name))) + 64
    samples = [(a, A, (A * 7 + a) & S.full_mask)
               for a in range(S.order) for A in range(0, S.full_mask + 1, 97)]
    want = [_table_ops(S, a, A, B) for a, A, B in samples]
    T = pickle.loads(payload)
    assert T == S and T.name == S.name and T is not S
    assert [_table_ops(T, a, A, B) for a, A, B in samples] == want


SET_ARITHMETIC = {
    "left_quotient", "trace_set", "translate_set", "right_translate",
    "set_quotient", "product_set",
}


def _names_used(module):
    """The names a module imports and the attributes it reads."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_literal_oracle_stays_off_the_tables():
    # literal.py is the ground truth for the table-backed fast path, so it
    # must reach none of it: not by import and not by attribute
    forbidden = SET_ARITHMETIC | {"union_table"}
    assert not _names_used(semsize.literal) & forbidden


def test_theorems_reach_no_per_subset_set_arithmetic():
    # every claim reads whole-mask tables, built from bit slices of the
    # Cayley table
    assert not _names_used(semsize.theorems) & (SET_ARITHMETIC | {"delta_tau"})


def test_a_semigroup_holds_its_table_and_scalar_flags_only():
    # the Cayley table is the one representation: every set operation and
    # every bit slice reads it, and no per-element list is derived from it
    assert FinSemigroup.__slots__ == (
        "order", "table", "name", "identity", "is_group", "full_mask"
    )


def test_no_module_reads_the_environment():
    # a run is set by its arguments alone
    names = ["semsize"] + [
        "semsize." + info.name for info in pkgutil.iter_modules(semsize.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        assert not _names_used(module) & {"environ", "getenv"}, name


def test_each_name_is_exported_by_the_module_that_defines_it():
    # one import path per name: a function or class in a module's __all__
    # is defined there, and the package exports that same object
    for info in pkgutil.iter_modules(semsize.__path__):
        module = importlib.import_module("semsize." + info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
    for name in semsize.__all__:
        obj = getattr(semsize, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            home = importlib.import_module(obj.__module__)
            assert name in getattr(home, "__all__", (name,)), (home.__name__, name)


# every name `semsize` exported when its __init__ imported each module
_EXPORTED = """
AssociativityError BoundRecord BoundViolation CatalogEntry DimensionError EmptyBase
FAMILY_NAMES FinSemigroup HUNT_VARIANTS LiteralContext NotAGroup NotASubsemigroup
PREDICATES Partition PrincipalFilter ProductLawViolation SchemaError SemsizeError
SizeLimitExceeded SizeTables SizeVerdict THEOREM_IDS TheoremReport UnknownFamily
VerifyConfig automorphisms bits build_catalog build_family build_from_table
check_hypothesis classify_all complement default_catalog delta_tau direct_product
elements enumerate_partitions enumerate_semigroups family_catalog finite_cover_bound
hunt_counterexample hypothesis_forces_full_base is_subgroup is_subset
is_tau_extrathick is_tau_large is_tau_prethick is_tau_small is_tau_thick
left_quotient literal_oracle make_principal mask_of min_cover minimal_left_ideals
order_le_catalog popcount product_set replay right_translate semigroup_from_spec
serialize_table set_quotient stirling2 subgroups sweep_partitions trace_set
translate_set trivial_filter ultrafilter_product verify
""".split()


def test_every_exported_name_resolves_on_first_use():
    # the package imports a name's module when the name is first read, and
    # perfbench reads these names as semsize.<name>
    assert sorted(semsize.__all__) == sorted(_EXPORTED)
    for name in _EXPORTED:
        assert getattr(semsize, name) is not None, name
        assert name in dir(semsize), name
    with pytest.raises(AttributeError):
        semsize.no_such_name


def _pairwise_minimal_translates(S, U0):
    # the pairwise filter that classify used before masks.minimal
    translates = {right_translate(S, U0, u) for u in elements(U0)}
    return sorted(
        E for E in translates
        if not any(R != E and (R | E) == E for R in translates)
    )


def _greedy_minimal_left_ideals(S, W):
    # the popcount-sorted loop that minimal_left_ideals used before masks.minimal
    principals = sorted(
        {(1 << x) | right_translate(S, W, x) for x in elements(W)},
        key=lambda m: (bin(m).count("1"), m),
    )
    kept = []
    for L in principals:
        if not any((M | L) == L for M in kept):
            kept.append(L)
    return sorted(kept)


def test_minimal_families_equal_the_former_filters_on_the_default_catalog():
    for entry in default_catalog():
        S = entry.semigroup
        assert minimal_left_ideals(S) == _greedy_minimal_left_ideals(S, S.full_mask)
        for U0 in entry.bases:
            want = _pairwise_minimal_translates(S, U0)
            assert list(PrincipalFilter(S, U0).minimal_translates) == want
            if subset_is_closed(S, U0):
                want = _greedy_minimal_left_ideals(S, U0)
                assert minimal_left_ideals(S, U0) == want
            else:
                with pytest.raises(NotASubsemigroup):
                    minimal_left_ideals(S, U0)
