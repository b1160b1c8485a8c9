"""The benchmark's spans on the `gen` path fire as often as the pipeline does
the work, so a refactor cannot drop a span the benchmark reads.

`benchmarks/perf/tracer.py` is loaded from its file, not changed: its
`Tracer` wraps every trace point, a tiny dataset is generated and labelled,
and each span of `milliflow.pipeline` and `milliflow.radar` is counted.
"""

import importlib.util
from pathlib import Path

from milliflow import pipeline
from milliflow.config import GenConfig, RunConfig

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perf_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_path_span_counts(tmp_path):
    tracer_module = _load_tracer()
    frames, window = 3, 3
    cfg = RunConfig(
        gen=GenConfig(n_subjects=3, n_scenes=1, frames_per_sequence=frames,
                      clutter_window=window, in_set=("ArmSwing",), out_of_set=("Sitting",)),
        explicit_split={"train": [0], "val": [1], "test": [2]},
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        pipeline.generate_dataset(cfg, tmp_path)
        pipeline.label_dataset(tmp_path)
    finally:
        tracer.uninstall()

    sequences = 3 * 2  # each subject does one in-set and one out-of-set activity
    simulated = sequences * (frames + window - 1)  # the warm-up frames included
    stored = sequences * frames
    pairs = frames - 1  # per sequence
    # pseudo labels for the train and val subjects' in-set sequences; exact
    # ones for the test subject's and for every out-of-set sequence
    pseudo, exact = 2 * pairs, (sequences - 2) * pairs
    expected = {
        "skeleton.generate_motion": sequences,
        "skeleton.observe_keypoints": stored,
        "radar.place_reflectors": simulated,
        "radar.synthesize_cube": simulated,
        "radar.clutter_removal": stored,
        "radar.heatmap": stored,
        "radar.cfar_detect": stored,
        "radar.cfar_mask": stored,
        "radar.to_point_cloud": stored,
        "labeling.label_frame_pair": pseudo,
        "labeling.ground_truth_flow": exact,
        "dataio.save": 2 * sequences,  # a sequence file and a label file each
        "dataio.load_sequence": sequences,
    }
    gen_path = {name for name, module, _ in tracer_module.TRACE_POINTS
                if module in ("milliflow.pipeline", "milliflow.radar")}
    assert gen_path == set(expected)
    calls = tracer.calls_in_round(0)
    assert {name: calls.get(name, 0) for name in gen_path} == expected
