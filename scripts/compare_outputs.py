"""Check that two source trees write byte-identical benchmark outputs.

Run from the repository root, naming the two directories that hold a
``coalsim`` package::

    python3 scripts/compare_outputs.py /path/to/parent/src src --seed 1 --seed 2

Every job of every workload in ``perfbench/workloads.py``, built at each
``--seed`` (repeat it for several; default 1 and 2), runs through each tree's
``cli.main`` in a child process that imports ``coalsim`` from that tree only.
The script prints every output file whose sha256 differs (or that one tree
alone wrote) and every job whose exit code differs, each under its seed, then
exits 1 if there is any such difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# Runs in a child: argv[1] is the tree, stdin the job argv lists; prints the exit codes.
_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import coalsim
from coalsim import cli
if Path(coalsim.__file__).resolve().parent != Path(sys.argv[1]).resolve() / "coalsim":
    sys.exit(f"coalsim imported from {coalsim.__file__}, not {sys.argv[1]}")
print(json.dumps([cli.main(argv) for argv in json.load(sys.stdin)]))
"""


def _run_tree(src: Path, jobs: dict, out: Path) -> dict:
    """Exit code per (workload, job name) of every job, run by the tree src
    with its outputs under out/<workload>/."""
    keys, argvs = [], []
    for workload, (configs, job_list) in jobs.items():
        (out / workload).mkdir(parents=True)
        for job in job_list:
            keys.append((workload, job.name))
            argvs.append(job.argv(configs[job.name], out / workload / job.name))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        raise SystemExit(f"compare_outputs: the child for {src} failed:\n{child.stderr}")
    return dict(zip(keys, json.loads(child.stdout.splitlines()[-1])))


def _digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def _compare(parent: Path, change: Path, seed: int) -> int:
    """Print each difference between the two trees' outputs at seed, and a
    summary line; return the number of differences."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = {}
        for workload in workloads.WORKLOADS:
            job_list = workloads.build(workload, seed)
            jobs[workload] = (workloads.write_configs(job_list, work / "configs" / workload), job_list)
        codes, digests = [], []
        for label, src in (("parent", parent), ("change", change)):
            codes.append(_run_tree(src, jobs, work / label))
            digests.append(_digests(work / label))
    differ = 0
    for key, code in codes[0].items():
        if code != codes[1][key]:
            print(f"seed {seed}: exit code differs: {'/'.join(key)}: parent {code}, change {codes[1][key]}")
            differ += 1
    for name in sorted(set(digests[0]) | set(digests[1])):
        if digests[0].get(name) != digests[1].get(name):
            print(f"seed {seed}: sha256 differs: {name}")
            differ += 1
    failed = sum(code != 0 for code in codes[1].values())
    print(f"seed {seed}: {len(digests[1])} output files, {failed} failed jobs, {differ} differences")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="directory holding the parent's coalsim")
    parser.add_argument("change_src", type=Path, help="directory holding the change's coalsim")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed; repeat for several (default: 1 and 2)")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "coalsim" / "__init__.py").is_file():
            parser.error(f"{src} holds no coalsim package")
    differ = sum(_compare(args.parent_src, args.change_src, seed) for seed in args.seed or (1, 2))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
