"""Regenerate the cli-session stdout goldens from the current sources.

    python3 bench/make_goldens.py

Run it only when a change to the CLI's output is intended; the goldens are
what every cli-session op is checked against.
"""

# common pins BLAS threads and the CPU as it loads, before numpy does
from common import GOLDEN, OUT, use_source_tree
from cli_session import ARGVS, prepare, run_child


def main() -> None:
    use_source_tree()
    workdir = OUT / "goldens"
    prepare(workdir)
    GOLDEN.mkdir(exist_ok=True)
    # design first: simulate reads the report it writes
    for name in sorted(ARGVS, key=lambda n: n != "design"):
        done = run_child(ARGVS[name], workdir)
        if done.returncode != 0 or done.stderr:
            raise SystemExit(f"{name}: exit {done.returncode}: {done.stderr}")
        (GOLDEN / f"{name}.txt").write_text(done.stdout)


if __name__ == "__main__":
    main()
