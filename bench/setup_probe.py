"""Set-up probe: what a fresh CLI process does before its first oracle query.

    python3 bench/setup_probe.py PRESENTATION RANKS [PRESENTATION RANKS ...]

Imports burnlab, then for each presentation loads the default config through
the CLI (which runs the parameter gate), parses and re-validates the
presentation and builds the relator system at each of RANKS (comma-separated).
Prints the seconds these steps took, timed inside the fresh process, so
interpreter start-up is not counted.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    start = perf_counter()
    from burnlab import cli
    from burnlab.presentation import GradedPresentation

    args = sys.argv[1:]
    for path, ranks in zip(args[::2], args[1::2]):
        cli.load_config(cli.build_parser().parse_args(["structure", "--presentation", path]))
        pres = GradedPresentation.from_json(Path(path).read_text())
        for rank in ranks.split(","):
            pres.relator_system(int(rank))
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
