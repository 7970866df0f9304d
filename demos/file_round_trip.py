"""Document round trip: export an algebra, rebuild the family via the CLI.

Writes the su2 bundle to a JSON document, runs the same construct and
verify commands the command line exposes, and shows the exit codes the
verdicts map to (0 = claim holds, 1 = claim fails).
"""

import sys
import tempfile
from pathlib import Path

from liegeom import document_from, get_example, parse, serialize
from liegeom.cli import run_command


def main():
    entry = get_example("su2")
    doc = document_from(entry.algebra, connection=entry.connection,
                        metric=entry.metric)
    with tempfile.TemporaryDirectory(prefix="liegeom-demo-") as tmp:
        workdir = Path(tmp)
        source = workdir / "su2.json"
        source.write_text(serialize(doc))
        print("wrote", source)

        member = workdir / "member.json"
        code = run_command(["construct", "lck", str(source),
                            "--c", "1", "--t", "1", "-o", str(member)])
        print("construct exit:", code)

        code = run_command(["verify", "--as", "kahler", str(member)])
        print("verify --as kahler exit:", code, "(1 means the claim fails)")

        back = parse(member.read_text())
        print("member dim:", back.dim)
        print("stored forms:", ", ".join(f.name for f in back.forms))
        print("lee form block:", back.form_block("lee_form").entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
