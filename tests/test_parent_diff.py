"""tests/parent_diff.py on the working tree as both sides, at MINI_CONFIG."""

import parent_diff


def test_a_tree_against_itself_differs_nowhere(tmp_path):
    file_rows, run_rows = parent_diff.diff_trees(
        parent_diff.ROOT, parent_diff.ROOT, tmp_path, {"mini": parent_diff.mini_config()}
    )
    assert [row for row in file_rows + run_rows if row[0] != "same"] == []
    files = {name for _, name in file_rows}
    assert {"mini/data/fleet.csv", "mini/data/.fleet.csv.npy", "mini/parse/.fleet.csv.npy",
            "mini/interleaved/.fleet.csv.npy", "mini/oc_sensorwise_interleaved_hi.csv",
            "mini/oc_aggregated_hi.csv", "mini/eval/evaluation_summary.csv",
            "mini/seg_ae/signatures.csv", "mini/experiment/silhouette_vs_k.csv"} <= files
    assert not any(name.endswith("_manifest.txt") for name in files)
    runs = {name for _, name in run_rows}
    assert len(runs) == 13 + len(parent_diff.FAILURES) + 1
    assert {f"mini: {label}" for label, *_ in parent_diff.FAILURES} <= {
        name.rsplit(": ", 1)[0] for name in runs
    }


def test_only_an_unexpected_difference_fails():
    rows = parent_diff.compare({"a/x.csv": b"1", "a/y.csv": b"2", "a: synth": (0, [])},
                               {"a/x.csv": b"1", "a/y.csv": b"3", "a/z.csv": b""})
    assert rows == [("same", "a/x.csv"), ("different", "a/y.csv"),
                    ("missing in base", "a/z.csv"), ("missing in head", "a: synth")]
    assert parent_diff.unexpected(rows, ["a/[yz].csv"]) == [("missing in head", "a: synth")]
