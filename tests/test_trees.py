import time

from quiverforge.linalg import Mat
from quiverforge.quiver import Arrow, Quiver, enumerate_real_roots
from quiverforge.reps import Representation, block_sum, simple_rep
from quiverforge.three_vertex import FamilyParams, build_family, build_subquiver, construct
from quiverforge.trees import export_dot, is_acyclic, is_tree, nonzero_count
from reference_reps import nonzero_count as ref_nonzero_count


def edge_lines(x):
    return [line for line in export_dot(x).splitlines() if "->" in line]


def test_simple_is_single_node_tree(q111):
    x = simple_rep(q111, 2)
    assert export_dot(x) == 'digraph coefficient_quiver {\n  "v2_1";\n}\n'
    assert nonzero_count(x) == 0
    assert is_tree(x)


def test_counterexample_coefficient_quiver(counterexample_quiver):
    x = Representation(
        counterexample_quiver, {1: 1, 2: 1},
        {"a1": Mat(1, 1, [[1]]), "a2": Mat(1, 1, [[0]])},
    )
    assert edge_lines(x) == ['  "v1_1" -> "v2_1" [label="a1:1"];']
    assert is_tree(x)


def test_disconnected_is_not_tree():
    q = build_subquiver(1)
    s = block_sum([simple_rep(q, 1), simple_rep(q, 2)])
    assert not is_tree(s)


def test_a_matching_count_on_a_graph_that_is_no_tree_is_not_a_tree():
    # 2 = total dim - 1 nonzeros, but they are a double edge v1_1 = v2_1
    # and v3_1 is reached by none
    q = Quiver((1, 2, 3), [Arrow("a1", 1, 2), Arrow("a2", 1, 2)])
    x = Representation(q, {1: 1, 2: 1, 3: 1}, {"a1": Mat(1, 1, [[1]]), "a2": Mat(1, 1, [[1]])})
    assert nonzero_count(x) == x.total_dim() - 1
    assert not is_tree(x)


def test_a_star_of_100000_leaves_is_a_tree_in_well_under_a_second():
    # every union lands on the growing root: without path halving the
    # finds walk a chain as long as the leaves seen so far
    n = 100_000
    q = Quiver((1, 2), [Arrow("a", 1, 2)])
    x = Representation(q, {1: 1, 2: n}, {"a": Mat(n, 1, [{0: 1}] * n, canonical=True)})
    start = time.perf_counter()
    assert is_tree(x)
    assert time.perf_counter() - start < 1


def test_sigma_block_rep_tree(q111):
    rep, _ = construct({1: 0, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    # three node lines and two edge lines between the header and the brace
    assert len(export_dot(rep).splitlines()) == 2 + 3 + 2
    assert len(edge_lines(rep)) == 2
    assert is_tree(rep)


def test_nonzero_counts(q111):
    assert nonzero_count(simple_rep(q111, 1)) == ref_nonzero_count(simple_rep(q111, 1)) == 0
    q = build_subquiver(1)
    s = block_sum([simple_rep(q, 1), simple_rep(q, 2)])
    assert nonzero_count(s) == ref_nonzero_count(s) == 0


def test_edge_count_equals_nonzero_count(q111):
    rep, _ = construct({1: 1, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    assert len(edge_lines(rep)) == nonzero_count(rep) == ref_nonzero_count(rep)


def test_catalog_reps_are_trees():
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    for r in enumerate_real_roots(q, 7):
        rep, _ = construct(r, p)
        assert is_tree(rep)
        assert ref_nonzero_count(rep) == rep.total_dim() - 1


def test_acyclicity_follows_the_arrows_direction(q111):
    # mu1: 2 -> 3 and nu1: 3 -> 2 each a 1x1 one close the oriented 2-cycle
    # v2_1 -> v3_1 -> v2_1; dropping nu1's entry leaves a path
    one, zero = Mat(1, 1, [[1]]), Mat(1, 1, [[0]])
    dims = {1: 0, 2: 1, 3: 1}
    cyclic = Representation(q111, dims, {"la1": Mat.zeros(1, 0), "mu1": one, "nu1": one})
    path = Representation(q111, dims, {"la1": Mat.zeros(1, 0), "mu1": one, "nu1": zero})
    assert not is_acyclic(cyclic) and is_acyclic(path)


def test_export_dot_golden(counterexample_quiver):
    x = Representation(
        counterexample_quiver, {1: 1, 2: 1},
        {"a1": Mat(1, 1, [[1]]), "a2": Mat(1, 1, [[0]])},
    )
    expected = (
        "digraph coefficient_quiver {\n"
        '  "v1_1";\n'
        '  "v2_1";\n'
        '  "v1_1" -> "v2_1" [label="a1:1"];\n'
        "}\n"
    )
    assert export_dot(x) == expected


def test_export_dot_lists_each_arrow_by_source_then_target_index(kronecker2):
    # la1 holds (0,0), (0,1) and (1,0) by rows; the DOT lists them by columns
    x = Representation(
        kronecker2, {1: 2, 2: 2},
        {"la1": Mat(2, 2, [[1, 2], [3, 0]]), "la2": Mat(2, 2, [[0, 0], [0, 5]])},
    )
    assert edge_lines(x) == [
        '  "v1_1" -> "v2_1" [label="la1:1"];',
        '  "v1_1" -> "v2_2" [label="la1:3"];',
        '  "v1_2" -> "v2_1" [label="la1:2"];',
        '  "v1_2" -> "v2_2" [label="la2:5"];',
    ]


def test_export_dot_stable(q111):
    rep, _ = construct({1: 1, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    a = export_dot(rep)
    b = export_dot(rep)
    assert a == b and a.endswith("\n")
