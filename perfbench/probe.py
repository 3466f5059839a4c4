"""Set-up probe: import `unital` and parse every spec file named in argv.

Run as a fresh interpreter by run.py; its wall time from spawn to exit is
one `setup_s` sample.  Refusal inputs are meant to fail to parse, so parse
errors of any kind are swallowed here; the verdict runs check them.
"""

import sys

import unital.cli  # noqa: F401  (the import a verdict pays for)
from unital.specfile import parse_spec


def main():
    parsed = 0
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            parse_spec(text)
            parsed += 1
        except Exception:  # noqa: BLE001  (refusal inputs, known defects)
            pass
    print(parsed)


if __name__ == "__main__":
    main()
