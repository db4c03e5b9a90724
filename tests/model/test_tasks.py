"""The model's task definitions on hand-checked graphs."""

from tests.model.tasks import components, degrees, triangle_count


class TestComponents:
    def test_empty(self):
        assert components([]) == {}

    def test_two_components(self):
        labels = components([(1, 2), (2, 3), (7, 9)])
        assert labels == {1: 1, 2: 1, 3: 1, 7: 7, 9: 7}

    def test_label_is_component_minimum(self):
        labels = components([(5, 4), (4, 9), (9, 0)])
        assert set(labels.values()) == {0}

    def test_chain(self):
        labels = components([(i, i + 1) for i in range(50)])
        assert all(label == 0 for label in labels.values())
        assert len(labels) == 51


class TestTriangles:
    def test_no_triangle(self):
        assert triangle_count([(0, 1), (1, 2), (2, 3)]) == 0

    def test_single_triangle_any_orientation(self):
        assert triangle_count([(2, 0), (0, 1), (1, 2)]) == 1

    def test_complete_graph(self):
        n = 7
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert triangle_count(pairs) == n * (n - 1) * (n - 2) // 6

    def test_duplicate_edges_count_once(self):
        assert triangle_count([(0, 1), (1, 0), (1, 2), (0, 2)]) == 1

    def test_a_self_loop_closes_nothing(self):
        assert triangle_count([(0, 0), (0, 1), (1, 2), (0, 2), (3, 3)]) == 1


class TestDegrees:
    def test_counts_both_endpoints(self):
        assert degrees([(0, 1), (1, 2)]) == {0: 1, 1: 2, 2: 1}
