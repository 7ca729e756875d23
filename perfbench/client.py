"""``fedrk client`` as the benchmark runs it: the CLI's own ``main``, then a
report of the process's peak RSS and, when traced, its spans.

Usage: client.py REPORT_JSON PASS_ID TRACE(0|1) <fedrk client arguments...>

Peak RSS is read from the process's own VmHWM: ``getrusage`` would report
at least the parent's resident size at the time of spawning.
"""

import json
import sys

from tracer import Tracer, vm_hwm_kb


def main():
    report_path, pass_id, trace, *cli_args = sys.argv[1:]
    from fedrk import cli

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.pass_id = int(pass_id)
        tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        report = {"vm_hwm_kb": vm_hwm_kb()}
        if tracer is not None:
            tracer.uninstall()
            report.update(totals=tracer.totals(), spans=tracer.spans)
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
