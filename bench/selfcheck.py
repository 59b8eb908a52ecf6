"""Fast self-check of the benchmark's correctness checks.

    python3 bench/selfcheck.py

Runs three real commands through the benchmark's own Command objects,
confirms that their genuine outputs pass, then perturbs each output slightly
and confirms that the same check rejects it: omega shifted by 1e-5 relative,
a grid row dropped, a density scaled by 1 + 1e-6.  Exits 0 when every
perturbation is caught.  Takes about a second.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

from run import ROOT, SRC, invoke
import workloads


def _rows(text):
    return text.rstrip("\n").split("\n")


def drop_row(text, index):
    rows = _rows(text)
    return "\n".join(rows[:index] + rows[index + 1 :]) + "\n"


def scale_value(text, row, column, factor):
    rows = _rows(text)
    cells = rows[row].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    rows[row] = ",".join(cells)
    return "\n".join(rows) + "\n"


def shift_omega(report_bytes, factor):
    report = json.loads(report_bytes)
    report["omega"] *= factor
    return json.dumps(report).encode()


def shift_printed_omega(stdout, factor):
    return re.sub(r"omega = ([0-9.]+)", lambda m: f"omega = {float(m.group(1)) * factor:.9f}",
                  stdout)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import rbklab.cli

    out = ROOT / ".bench_out" / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    with open(SRC / "rbklab" / "data" / "fixtures.json", encoding="utf-8") as fh:
        fixtures = json.load(fh)["fixtures"]
    commands = {c.name: c for w in ("grid-dense", "blowup")
                for c in workloads.build(w, 0, out / w, fixtures)}

    # (command, description, output perturbation, expected problem fragment);
    # the perturbation maps (stdout, files) to perturbed (stdout, files).
    def on_file(suffix, fn):
        def apply(stdout, files):
            changed = dict(files)
            path = next(p for p in files if p.name.endswith(suffix))
            changed[path] = fn(files[path])
            return stdout, changed
        return apply

    def text(fn):
        return lambda data: fn(data.decode()).encode()

    cases = [
        ("blowup/uniform_N3", "omega shifted by 1e-5 relative",
         on_file(".report.json", lambda b: shift_omega(b, 1 + 1e-5)), "omega off the oracle"),
        ("blowup/uniform_N3", "phi_2 of the last row scaled by 1 + 1e-6",
         on_file(".csv", text(lambda t: scale_value(t, -1, 2, 1 + 1e-6))), "phi_2 - tau drifts"),
        ("verify-asymptotics/uniform_N3", "printed omega shifted by 1e-5 relative",
         lambda s, f: (shift_printed_omega(s, 1 + 1e-5), f), "printed omega"),
        ("simulate/oracle_N3", "a grid row dropped",
         on_file(".csv", text(lambda t: drop_row(t, 1000))), "grid points missing"),
        ("simulate/oracle_N3", "c_1 of the last row scaled by 1 + 1e-6",
         on_file(".csv", text(lambda t: scale_value(t, -1, 1, 1 + 1e-6))), "nu_odd closed form"),
    ]

    ok = True
    genuine = {}
    for name, what, perturb, fragment in cases:
        cmd = commands[name]
        if name not in genuine:
            code, stdout = invoke(rbklab.cli.main, cmd.argv)
            files = workloads.read_outputs(cmd.outputs)
            problems = cmd.check(stdout, files) if code == 0 else [f"exit {code}"]
            print(f"{'ok  ' if not problems else 'FAIL'} {name}: genuine output "
                  f"{'passes' if not problems else 'rejected: ' + '; '.join(problems)}")
            ok &= not problems
            genuine[name] = stdout, files
        problems = cmd.check(*perturb(*genuine[name]))
        caught = any(fragment in p for p in problems)
        print(f"{'ok  ' if caught else 'FAIL'} {name}: {what} -> "
              f"{'; '.join(problems) if problems else 'accepted'}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
