"""Golden dataset hashes: a tiny generate + label run, hashed file by file.

The radar front end, the labelers and the writers must reproduce these bytes
exactly.  A change that moves them changes the dataset; re-record the hashes
only together with an explanation of why the outputs changed.
`manifest.json` and `label_summary.json` were re-recorded once when the run
config they echo lost its `net.input_features` field; every other file held.
Recorded with
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
            "06ce4bf464307083693bfb140e6aae3c941d30172358d84a9a91ea528ddb8496",
        "manifest.json":
            "2e37067fa4914b84eba745495db11224a2dbaac35526e15c9d9063fefd7c135b",
        "seq_000_ArmSwing_00/frames.jsonl":
            "369e1ec7c858ca16967978cc0b1f4c3c99f3c1c7f03e515eef90682b91dffaf7",
        "seq_000_ArmSwing_00/labels.jsonl":
            "afb0a13b921727f6539199506ab80c72bfc5975869a1d60f5415b778e6ef60fd",
        "seq_000_Sitting_00/frames.jsonl":
            "1044930bb687f862957d26607b2b2c95475ad09d7f6a405e574a859e1d599b35",
        "seq_000_Sitting_00/labels.jsonl":
            "3b58e61198c6b6e7f85ee2e738033ab9def7445ed87cdc074b02839755a4349d",
        "seq_001_ArmSwing_00/frames.jsonl":
            "27f4f9f6004ecf9e68b773b01ad8b29159021be16ad4d17cb9e37436b23c8ae4",
        "seq_001_ArmSwing_00/labels.jsonl":
            "6e6aacc5a9a44b890e791a39d1e157a3b668823ef82728f40b1d46ba1ad91e5d",
        "seq_001_Sitting_00/frames.jsonl":
            "d4076977b8b632f1facdc79114d8a0429090e6903947a1b88b30f51177052c0d",
        "seq_001_Sitting_00/labels.jsonl":
            "dcdeb8ff8d07104aa3a5bd39e2ba7af374b8cd2ad7886bf2a118909351f55d2b",
        "seq_002_ArmSwing_00/frames.jsonl":
            "311c0ec08f07f8fed46c36bcac802da875cf006936105a9d4c8fff0ce404af24",
        "seq_002_ArmSwing_00/labels.jsonl":
            "33fdfdc008a97d6b29a55978258426e12720128041e7ea7e2ac068b655cca65b",
        "seq_002_Sitting_00/frames.jsonl":
            "f0e55f7856428ff28074247f6c420cc6c5e1f098323ed0e875f27eb4d0162a80",
        "seq_002_Sitting_00/labels.jsonl":
            "638d0c75076cd00a35454419ecaa0c2821207ba8081339562b71902bc1d1e8ee",
        "seq_003_ArmSwing_00/frames.jsonl":
            "16995525170d44076b81bc8c4ee1647aecbe179cfa945ad9d91b2eb8c3b18f56",
        "seq_003_ArmSwing_00/labels.jsonl":
            "d4c925aa765d95c73ba3557bb8a36e5edd6265fdcdbb4bdbd4a20a282aa83a81",
        "seq_003_Sitting_00/frames.jsonl":
            "74e82177da5d7c1292544b67a54f72a8b1f7e96a5b8e3f1701b054f715143447",
        "seq_003_Sitting_00/labels.jsonl":
            "8e8a15471e8f5a3ead48601a173c46e1a42b034e2b65f204f342e1df9ad380fe",
        "seq_004_ArmSwing_00/frames.jsonl":
            "21c021ef2b2c968b31bfa883e5ddb9c909e1e1e2a0bc6f58471100c004ce4672",
        "seq_004_ArmSwing_00/labels.jsonl":
            "c055b899739d91d617e61ee34a3a712336c7d2390cdd3c32a662f47777f565df",
        "seq_004_Sitting_00/frames.jsonl":
            "a580c124de1f5a31dbd92290d39303ef7080cc40e91b5602a41764e42f3ba50b",
        "seq_004_Sitting_00/labels.jsonl":
            "a1a60a512f1f31c24ad4647ff8eddec25b2f648ede194db562b1fecc2503b060",
        "seq_005_ArmSwing_00/frames.jsonl":
            "0817ee7c7f3f05122e685aafaf16585279b7d3adfc0a17e8a9591dbe1d57edf5",
        "seq_005_ArmSwing_00/labels.jsonl":
            "eab7db28830a1d2226a5bec56f567e8cf5eef34cf47dafd3ab85145e0ac71cf0",
        "seq_005_Sitting_00/frames.jsonl":
            "c4646845978fb23ac19210ddc7bc4fed5890a84a131eac02f823dda02411a81a",
        "seq_005_Sitting_00/labels.jsonl":
            "4a13f8d9d882d85032194d771ffebfe610b2470e88ad2ffff702b16481016aa9",
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
