from quiverforge.linalg import Mat
from quiverforge.quiver import enumerate_real_roots
from quiverforge.reps import Representation, block_sum, simple_rep
from quiverforge.three_vertex import FamilyParams, build_family, build_subquiver, construct
from quiverforge.trees import coefficient_quiver, export_dot, is_tree
from reference_reps import nonzero_count


def test_simple_is_single_node_tree(q111):
    c = coefficient_quiver(simple_rep(q111, 2))
    assert len(c.nodes) == 1 and c.edges == []
    assert is_tree(c)


def test_counterexample_coefficient_quiver(counterexample_quiver):
    x = Representation(
        counterexample_quiver, {1: 1, 2: 1},
        {"a1": Mat(1, 1, [[1]]), "a2": Mat(1, 1, [[0]])},
    )
    c = coefficient_quiver(x)
    assert len(c.nodes) == 2
    assert [(e[0], e[1], e[2]) for e in c.edges] == [("a1", "v1_1", "v2_1")]
    assert is_tree(c)


def test_disconnected_is_not_tree():
    q = build_subquiver(1)
    s = block_sum([simple_rep(q, 1), simple_rep(q, 2)])
    assert not is_tree(coefficient_quiver(s))


def test_sigma_block_rep_tree(q111):
    rep, _ = construct({1: 0, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    c = coefficient_quiver(rep)
    assert len(c.nodes) == 3 and len(c.edges) == 2
    assert is_tree(c)


def test_nonzero_counts(q111):
    assert nonzero_count(simple_rep(q111, 1)) == 0
    q = build_subquiver(1)
    assert nonzero_count(block_sum([simple_rep(q, 1), simple_rep(q, 2)])) == 0


def test_edge_count_equals_nonzero_count(q111):
    rep, _ = construct({1: 1, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    assert len(coefficient_quiver(rep).edges) == nonzero_count(rep)


def test_catalog_reps_are_trees():
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    for r in enumerate_real_roots(q, 7):
        rep, _ = construct(r, p)
        c = coefficient_quiver(rep)
        assert is_tree(c)
        assert nonzero_count(rep) == rep.total_dim() - 1


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
    assert export_dot(coefficient_quiver(x)) == expected


def test_export_dot_stable(q111):
    rep, _ = construct({1: 1, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    a = export_dot(coefficient_quiver(rep))
    b = export_dot(coefficient_quiver(rep))
    assert a == b and a.endswith("\n")
