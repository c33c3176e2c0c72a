"""Every pinned output byte of the suite, as one sha256 per ``<producer>/<output>``;
``python -m pytest -q -k "pinned or digest"`` runs every test that reads one.

The pins were made on an Intel Xeon with AVX-512 and 2 cores: scipy-openblas
0.3.31 (``DYNAMIC_ARCH``, choosing its SkylakeX kernel) with 2 threads, and
numpy 2.4.6 dispatching its X86_V3, X86_V4, AVX512_ICL and AVX512_SPR loops.
Some pins read bits of the discriminator's matrix products, which depend on
the BLAS kernel and thread count; ``python tests/machines.py`` reruns the
pinned tests and the criteria under settings that stand in for other
machines, and the README lists what holds under each."""

from hashlib import sha256

GOLDENS = {
    # `pragcomm gen-world` on test_cli.FAST_CFG
    "gen-world/world_3.txt": "f6319c08c6655e4d495ef734e40542444e9e4656ec5c2d9292cfb1d81ab8d599",
    "gen-world/obs_3_agent0.txt":
        "ad52cddf72804b478e8ef13f9f2fbf58bc42e92a4cea51d4857a8bf176ba3e50",
    "gen-world/obs_3_agent1.txt":
        "08928ff22c6a07542a410d4e7603717fc100583917bc174f6a8100d3bc322d8f",
    # `pragcomm train` on test_cli.FAST_CFG
    "train/codebook.txt": "2d8aad050d3d1633602f40f111c0a77afc95ad716e34212041966ba98c5ad5f4",
    "train/discriminator.txt": "09cf0617a1ecc8bc553b95179fbb10260c6ba5c813aaadc80612747226a9337b",
    "train/disc_losses.txt": "9df41573e8fb07c6a6ee62234a797717a9f0f35a5a37e9d9af1b607afe28c65c",
    "train/tau_draws.txt": "130f08675cfe7aad68df4d52ceb2125a59bd46633e6583b8d619b7ce94006161",
    # `pragcomm sweep` on test_cli.FAST_CFG
    "sweep/results.csv": "2c8e781bd6f4d29be09c6dc6338455459695fb6b6b106e8a86e374f4768b5853",
    "sweep/summary.csv": "1e488224852aa189b03a2b90dfea7c8ef9e8dc4918eb2ccf82f1f6b33388a2b1",
    "sweep/sample_message.bin": "69166ac056b03b7ca3c4a24f02bd879f1f0bfab8a61db673afc32a3a1dc18353",
    # `pragcomm export` of that sweep's results.csv
    "export/curve_task_entropy_mi.csv":
        "b13387e166c896f0e8b0278b1b32e6e70b7da97f0a54c4b074d317b4aead1084",
    # `pragcomm verify-theory` on test_cli.FAST_CFG
    "verify/report.txt": "e63330080833da604094789c8e4f0430dd78590cb4cb795ee475df3e6e50cae4",
    "verify/frontier.csv": "c8670b889bd7e4305a457f73895759d1a891171393e0158a6af2921a754aa6c1",
    # `pragcomm verify-theory` on configs/small.cfg; the bench's theory op makes this frontier
    "small-verify/report.txt": "beebbd587bfabf01cbf580a660c3e5406808b43e3196175d3ac1372c08b7bc19",
    "small-verify/frontier.csv": "88029e94e5702db54af010685f9ae70f2716a3b5005d31ec387c6699f535d88a",
    # conftest's session stacks: each codebook.txt
    "codebooks/lossless_stack": "b29d67ef56a470800c2c6afc37d4c2c3ce57ae2772dc2b13d4c96044ae3c4d51",
    "codebooks/tradeoff_stack": "ad1e6e95175f253a68b1bbd42c930d956ebc7cedc3f1e39ccfc0427b0020dd14",
    # conftest's tradeoff_sweeps (criterion 8: 20 seeds, 2000-step stack): results_csv
    "tradeoff/mi": "d36bc8b89710057a1a9f8e01390a5e4e6132c4aa0de97363186a1e72cbb78bd6",
    "tradeoff/baseline": "a4017c65c095deff26e20c58b574eedf712412790ac18f1816961ab4726a2e17",
    "tradeoff/confidence_only": "c26e0bbb6d54686e95818eadb7bda0ad5c654573ef38b656ff453ce89ad07eda",
    # criterion 7's 20 rounds on conftest's lossless_stack: results_csv
    "lossless/results.csv": "9bba85211b2c278c67f1a0de5697635fa987fe81e7e09e3936ea5d62c6193005",
    # perfbench/workloads.py at seed 11, operation 0: Workload.digests
    "bench/codebook_sha256": "eb7cea0535edfa13341df3deb155956704e100bc36e5f99041716e826ffd90b3",
    "bench/results_csv_sha256": "8b41d96d916dad8752b6f086bad764b086fcfd29c2f4e83e397410fead28cd8b",
    "bench/wire_blobs_sha256": "154ac428c9f7022b8400556c8c14571711001304574b995d57965d4abdf8bb73",
}


def pins(producer: str) -> dict:
    """One producer's entries, keyed by output name; there must be some."""
    found = {k.split("/")[1]: v for k, v in GOLDENS.items() if k.startswith(producer + "/")}
    assert found, producer
    return found


def tree_digests(root) -> dict:
    """The sha256 of every file in the directory ``root``, keyed by file name."""
    return {p.name: sha256(p.read_bytes()).hexdigest() for p in root.iterdir() if p.is_file()}
