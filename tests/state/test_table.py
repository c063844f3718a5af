"""Unit tests for the columnar stream-state table."""


import numpy as np
import pytest

from repro.state.table import StreamStateTable


class TestValuePlane:
    def test_record_report_updates_columns(self):
        table = StreamStateTable(4)
        assert table.known_count == 0
        table.record_report(2, 7.5)
        assert table.values[2] == 7.5
        assert table.known[2]
        assert table.known_count == 1
        assert list(table.known_ids()) == [2]

    def test_record_report_accepts_numpy_ids(self):
        table = StreamStateTable(3)
        table.record_report(np.int64(1), 2.0)
        assert table.known[1]

    def test_bulk_ingest_marks_all_known(self):
        table = StreamStateTable(3)
        table.record_report_rows(np.arange(3), np.array([1.0, 2.0, 3.0]))
        assert table.known_count == 3
        assert list(table.values) == [1.0, 2.0, 3.0]

    def test_vector_payload_allocates_points(self):
        table = StreamStateTable(2)
        table.record_report(0, np.array([1.0, 2.0]))
        assert table.points is not None
        assert table.points.shape == (2, 2)
        assert table.payload_array() is table.points
        assert list(table.value_of(0)) == [1.0, 2.0]

    def test_scalar_payload_array_is_values(self):
        table = StreamStateTable(2)
        assert table.payload_array() is table.values


class TestConstraintPlane:
    def test_record_deploy_marks_scannable(self):
        table = StreamStateTable(2)
        assert not table.scannable[0]
        table.record_deploy(0, 1.0, 9.0)
        assert (table.lower[0], table.upper[0]) == (1.0, 9.0)
        assert table.scannable[0]


class TestMembershipPlanes:
    def test_answer_ops_track_size(self):
        table = StreamStateTable(5)
        table.answer_add(1)
        table.answer_add(1)  # idempotent
        table.answer_add(np.int64(3))
        assert table.answer_size == 2
        assert table.answer_contains(3)
        table.answer_discard(np.int64(3))
        table.answer_discard(3)  # idempotent
        assert table.answer_size == 1
        assert table.answer_snapshot() == frozenset({1})

    def test_answer_replace_and_mask(self):
        table = StreamStateTable(4)
        table.answer_replace([0, 2])
        assert table.answer_snapshot() == frozenset({0, 2})
        table.answer_set_mask(np.array([False, True, False, True]))
        assert table.answer_snapshot() == frozenset({1, 3})
        assert table.answer_size == 2

    def test_answer_take_reports_moves_the_count_by_net_steps(self):
        """Time-ordered reports, each flipping its row: the mask takes
        each row's last report, and |A| the net steps — a recount."""
        table = StreamStateTable(5)
        table.answer_replace([1, 3])
        epoch = table.answer_epoch
        # Row 0 enters, leaves, enters; row 3 leaves; rows 4, 2 enter.
        rows = np.array([0, 3, 0, 4, 0, 2])
        entering = np.array([True, False, False, True, True, True])
        table.answer_take_reports(rows, entering)
        assert table.answer_snapshot() == frozenset({0, 1, 2, 4})
        assert table.answer_size == int(np.count_nonzero(table.answer_mask))
        assert table.answer_epoch > epoch

    def test_tracked_ops_and_difference(self):
        table = StreamStateTable(5)
        table.tracked_replace([0, 1, 2])
        table.answer_replace([0, 2])
        assert table.tracked_size == 3
        assert list(table.tracked_not_in_answer()) == [1]
        table.tracked_discard(1)
        assert table.tracked_snapshot() == frozenset({0, 2})


class TestListeners:
    def test_listeners_notified_per_report(self):
        table = StreamStateTable(3)
        notes = []

        class Spy:
            def note(self, stream_id):
                notes.append(stream_id)

            def invalidate(self):
                notes.append("all")

        spy = Spy()
        table.add_listener(spy)
        table.add_listener(spy)  # idempotent
        table.record_report(1, 5.0)
        table.record_report_rows(np.arange(3), np.zeros(3))
        assert notes == [1, "all"]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            StreamStateTable(-1)


class TestGeometricPlane:
    def test_record_region_deploy_marks_scannable(self):
        table = StreamStateTable(3)
        assert table.geo_lower is None
        table.record_region_deploy(
            1, [0.0, 0.0], [2.0, 2.0], [-1.0, -1.0], [3.0, 3.0]
        )
        assert table.geo_scannable.tolist() == [False, True, False]
        assert np.array_equal(table.geo_lower[1], [0.0, 0.0])
        assert np.array_equal(table.geo_outer_lower[1], [-1.0, -1.0])
        # Unset rows stay claim-free: empty inner, infinite outer.
        assert np.all(np.isinf(table.geo_lower[0]))
        assert table.geo_lower[0][0] > table.geo_upper[0][0]

    def test_omitted_outer_box_defaults_to_infinite(self):
        table = StreamStateTable(1)
        table.record_region_deploy(0, [0.0], [1.0])
        assert np.all(np.isneginf(table.geo_outer_lower[0]))
        assert np.all(np.isposinf(table.geo_outer_upper[0]))
        table.inside[0] = False
        # Infinite outer box: no point is provably outside.
        mask = table.geometric_quiescence_mask(np.array([[99.0]]), [0])
        assert not mask[0]

    def test_dimension_mismatch_rejected(self):
        table = StreamStateTable(2)
        table.record_region_deploy(0, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="dimension"):
            table.record_region_deploy(1, [0.0], [1.0])
        with pytest.raises(ValueError, match="congruent"):
            table.record_region_deploy(1, [0.0, 0.0], [1.0])

    def test_clear_region_filter(self):
        table = StreamStateTable(2)
        table.record_region_deploy(0, [0.0, 0.0], [4.0, 4.0])
        table.inside[0] = True
        assert table.geometric_quiescence_mask(
            np.array([[1.0, 1.0]]), [0]
        )[0]
        table.clear_region_filter(0)
        assert not table.geo_scannable[0]
        assert not table.inside[0]
        assert not table.geometric_quiescence_mask(
            np.array([[1.0, 1.0]]), [0]
        )[0]

    def test_mask_without_geometry_is_all_false(self):
        table = StreamStateTable(2)
        mask = table.geometric_quiescence_mask(np.zeros((2, 3)))
        assert mask.tolist() == [False, False]

    def test_mask_requires_a_point_matrix(self):
        table = StreamStateTable(2)
        with pytest.raises(ValueError, match="matrix"):
            table.geometric_quiescence_mask(np.zeros(2))

    def test_mask_both_believed_sides(self):
        table = StreamStateTable(2)
        for row in (0, 1):
            table.record_region_deploy(
                row, [0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [2.0, 2.0]
            )
        table.inside[0] = True
        table.inside[1] = False
        inside_pt = np.array([[0.5, 0.5]])
        outside_pt = np.array([[5.0, 5.0]])
        shell_pt = np.array([[1.5, 1.5]])  # between inner and outer
        assert table.geometric_quiescence_mask(inside_pt, [0])[0]
        assert not table.geometric_quiescence_mask(outside_pt, [0])[0]
        assert not table.geometric_quiescence_mask(shell_pt, [0])[0]
        assert table.geometric_quiescence_mask(outside_pt, [1])[0]
        assert not table.geometric_quiescence_mask(inside_pt, [1])[0]
        assert not table.geometric_quiescence_mask(shell_pt, [1])[0]
