"""Golden dataset hashes: a tiny generate + label run, hashed file by file.

The radar front end, the labelers and the writers must reproduce these bytes
exactly.  A change that moves them changes the dataset; re-record the hashes
only together with an explanation of why the outputs changed.
`manifest.json` and `label_summary.json` were re-recorded once when the run
config they echo lost its `net.input_features` field; every other file held.
Every frame, label and `label_summary.json` hash was re-recorded once when
generation began to store only the detections within the range of
`dataio.PREPROCESS_BOX` (range bin 129 and nearer at the default radar):
farther points, which no network reads, and their ghosts and label rows are
no longer written; `manifest.json` held, and so did every network input
hashed in the other golden files.  Recorded with
numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, on its AVX-512 (SkylakeX) kernels.
The bytes depend on the BLAS kernel: an OpenBLAS built with DYNAMIC_ARCH picks
its core type at run time, and under `OPENBLAS_CORETYPE=Haswell` or `Prescott`
small dot and matrix products in the bone frames round differently, so these
hashes move.  The FFT gives the same bytes under every core type.
"""

import hashlib

import pytest

from milliflow import pipeline
from milliflow.config import GenConfig, RunConfig


def golden_cfg() -> RunConfig:
    return RunConfig(
        gen=GenConfig(
            n_subjects=6,
            n_scenes=1,
            frames_per_sequence=5,
            in_set=("ArmSwing",),
            out_of_set=("Sitting",),
        )
    )


def dataset_hashes(root, workers: int = 1) -> dict:
    pipeline.generate_dataset(golden_cfg(), root, workers=workers)
    pipeline.label_dataset(root)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


GOLDEN = {
    "json": {
        "label_summary.json":
            "42c0d0abcfbf5e6c681d3c0dac5339441b0e887be91089c29c3010e846aa79a0",
        "manifest.json":
            "2e37067fa4914b84eba745495db11224a2dbaac35526e15c9d9063fefd7c135b",
        "seq_000_ArmSwing_00/frames.jsonl":
            "7caf8d8b844e568df8229de552d78a9da0a005b1139dffeab7b589b9399809bb",
        "seq_000_ArmSwing_00/labels.jsonl":
            "10f20d71d7d5dbbfd8ca66e249f2d72f5c932113da69fa1099690efdc6ef1698",
        "seq_000_Sitting_00/frames.jsonl":
            "b607b6302a1b9e620797261a3de39ba9b7f1262bd5f2dca91d8f600e7cc59240",
        "seq_000_Sitting_00/labels.jsonl":
            "fd64896bab750eeff0a7122c3a67a783a3385e168663478a29d82bffb07669bc",
        "seq_001_ArmSwing_00/frames.jsonl":
            "32a616bda503db51a5fbf9457c90493e141339583f2cb2daeb5202b339d99052",
        "seq_001_ArmSwing_00/labels.jsonl":
            "ba8a64ebd1846919b552a428598cc808252c9004a943f3b8a67c9ad706b908aa",
        "seq_001_Sitting_00/frames.jsonl":
            "69ac11b8385ba973280ee3d1b964f95511160fe131a26d3d4abd260ef79c3617",
        "seq_001_Sitting_00/labels.jsonl":
            "47189a7c7be42d576e96b87461b05c0954c99413181ef88b441583b49191f3ef",
        "seq_002_ArmSwing_00/frames.jsonl":
            "325483e7f8f9f563715e8b1b29db7284ecb0eb99e82c9df1c139e527bef69138",
        "seq_002_ArmSwing_00/labels.jsonl":
            "cc087b59d33c3821563d5cec34af0f4020688826e5b532495c60492f9fce8211",
        "seq_002_Sitting_00/frames.jsonl":
            "9fd6164a329e0aa2b7799f7ac88dbf4156adc7022448e578b19517a1cb5cb25b",
        "seq_002_Sitting_00/labels.jsonl":
            "11ad731e0c734ec385e0013ddbd314c0512cf7464ba10fbc1fec0dba9d38417a",
        "seq_003_ArmSwing_00/frames.jsonl":
            "f2c8c438ef2c2edbd265be1f67f49299284aa9ff713543cda80ebea7c673dd49",
        "seq_003_ArmSwing_00/labels.jsonl":
            "fd4204355f72bcf320614fa19d206d00f38a7cce5017f885ee724f255208ded7",
        "seq_003_Sitting_00/frames.jsonl":
            "6e54d9a6c05ef525781ff718f4ee366ed4de0dd3dfe45af69b14d0a75200da60",
        "seq_003_Sitting_00/labels.jsonl":
            "07a8ac1510dc27e8188a0efde0c832478e6776351bcc1eaff1f8d5c72b24c16a",
        "seq_004_ArmSwing_00/frames.jsonl":
            "2949b711e68bc7d8599e35f628e438ef7dbc3251a902e5bd36daf12a22be8242",
        "seq_004_ArmSwing_00/labels.jsonl":
            "eaaa49227a59ae26683a7f7a6fda45397e3586664fb3b2c573847cdd0f1501f7",
        "seq_004_Sitting_00/frames.jsonl":
            "0b773f78385f1a3dca3002710bcb677e92bbb821c329bf35d4bb70b945ebbd44",
        "seq_004_Sitting_00/labels.jsonl":
            "f0b0f4e5713bcbc791c18375bd8accb76f919114f273c644087854d519a5e3ac",
        "seq_005_ArmSwing_00/frames.jsonl":
            "5b2587f91a494cf1bb5d110caabe329053e91d27a54089d9b751ad390baec53a",
        "seq_005_ArmSwing_00/labels.jsonl":
            "d599844391ed7333c4ecb81eb95f5419cd5e1724ca887aaf58f31ad2057debe3",
        "seq_005_Sitting_00/frames.jsonl":
            "7febadb319ac9841088202b0d6c62632b3171ea8455c14e337fe902a70d768a0",
        "seq_005_Sitting_00/labels.jsonl":
            "89c5b0dabc0941d6262b322106ef75f0feaab38a27e13a1a0549d7ba245556e8",
    },
}


@pytest.mark.parametrize("mode", ["json"])
def test_dataset_bytes_unchanged(tmp_path, mode):
    got = dataset_hashes(tmp_path)
    assert got == GOLDEN[mode]


def test_dataset_bytes_unchanged_through_process_pool(tmp_path):
    # state a worker process builds for itself, such as a subject model's
    # cached rest triads, changes no byte
    assert dataset_hashes(tmp_path, workers=2) == GOLDEN["json"]
