"""Every pinned output byte of the suite, as one sha256 per ``<producer>/<output>``;
``python -m pytest -q -k "pinned or digest"`` runs every test that reads one."""

from hashlib import sha256

GOLDENS = {
    # `pragcomm gen-world` on test_cli.FAST_CFG
    "gen-world/world_3.txt": "f6319c08c6655e4d495ef734e40542444e9e4656ec5c2d9292cfb1d81ab8d599",
    "gen-world/obs_3_agent0.txt":
        "ad52cddf72804b478e8ef13f9f2fbf58bc42e92a4cea51d4857a8bf176ba3e50",
    "gen-world/obs_3_agent1.txt":
        "08928ff22c6a07542a410d4e7603717fc100583917bc174f6a8100d3bc322d8f",
    # `pragcomm train` on test_cli.FAST_CFG
    "train/codebook.txt": "a69aebc9fe7c230116e75e0b0f30dbcb44ca6fda58559b0f1858aec6a02f0451",
    "train/discriminator.txt": "af89f56d767792fcd5a5e2ddd63b0c4c6ada4490c5c67a256179bf45e6c410b4",
    "train/disc_losses.txt": "f1ec043cb3c742931371bae537ddc9c574c426c096b049fed941405c81dc8ee0",
    "train/tau_draws.txt": "130f08675cfe7aad68df4d52ceb2125a59bd46633e6583b8d619b7ce94006161",
    # `pragcomm sweep` on test_cli.FAST_CFG
    "sweep/results.csv": "c2e689447c5a9ef20e51c9af9c887881f0ffb53ffb530fd0525a5063e9297ddd",
    "sweep/summary.csv": "27f5a64e22dcf7ea7bc0b9b78f7dea6baabc2f2dae8c43631ff379f10a328ac9",
    "sweep/sample_message.bin": "7aefff5243c12e77741fcd1dd013803779c897ccfbd2277c404857bbc28d758c",
    # `pragcomm export` of that sweep's results.csv
    "export/curve_task_entropy_mi.csv":
        "cf578db5146945fddb5682e38fda94abf62b8fb1eba8a484f7e61185774b4d34",
    # `pragcomm verify-theory` on test_cli.FAST_CFG
    "verify/report.txt": "e63330080833da604094789c8e4f0430dd78590cb4cb795ee475df3e6e50cae4",
    "verify/frontier.csv": "c8670b889bd7e4305a457f73895759d1a891171393e0158a6af2921a754aa6c1",
    # `pragcomm verify-theory` on configs/small.cfg; the bench's theory op makes this frontier
    "small-verify/report.txt": "beebbd587bfabf01cbf580a660c3e5406808b43e3196175d3ac1372c08b7bc19",
    "small-verify/frontier.csv": "88029e94e5702db54af010685f9ae70f2716a3b5005d31ec387c6699f535d88a",
    # conftest's session stacks: each codebook.txt
    "codebooks/lossless_stack": "45032edcfc2bf17429bd3eea2c1e1595fae71312eb4ec4025a245898e5a007a6",
    "codebooks/tradeoff_stack": "925b111f8fb4688d17031e681f7233ccfc59c8ab403baa757f5047efceb20a3e",
    # conftest's tradeoff_sweeps (criterion 8: 20 seeds, 2000-step stack): results_csv
    "tradeoff/mi": "d0a675375de36a3f1a90893f85b69038b2b8c068b6582ceaf68dcb2b713ede3d",
    "tradeoff/baseline": "a4017c65c095deff26e20c58b574eedf712412790ac18f1816961ab4726a2e17",
    "tradeoff/confidence_only": "04bc792f42b011d5e7e2f0a33c7a348c8f49b0fe60bd6e86ec7d3e47b071ce1b",
    # criterion 7's 20 rounds on conftest's lossless_stack: results_csv
    "lossless/results.csv": "0d2b9b427d34b84b50145ff187b605ab2117d398a2e3b2961871d9bc2de5dffe",
    # perfbench/workloads.py at seed 11, operation 0: Workload.digests
    "bench/codebook_sha256": "87bfc66d853a95842ea990ab3915d8729bf9400e1a0a3ade121a785e94507457",
    "bench/results_csv_sha256": "eab74743aa285c475e9d22c807c15e18899fd67cb2fc76d71a35f80a394499b0",
    "bench/wire_blobs_sha256": "b50e3b9d8ca81c2450879914844bfd2703048172c411382568f7ba710bf38671",
}


def pins(producer: str) -> dict:
    """One producer's entries, keyed by output name; there must be some."""
    found = {k.split("/")[1]: v for k, v in GOLDENS.items() if k.startswith(producer + "/")}
    assert found, producer
    return found


def tree_digests(root) -> dict:
    """The sha256 of every file in the directory ``root``, keyed by file name."""
    return {p.name: sha256(p.read_bytes()).hexdigest() for p in root.iterdir() if p.is_file()}
