"""The paper's order-processing scenario, monitored online.

Both constraints from Section 2 of the paper run against a generated event
stream; a FIFO violation is injected and the monitor reports it at the
earliest instant at which no possible future can repair the history.

Run with:  python examples/orders_queue.py
"""

from repro import History, IntegrityMonitor
from repro.workloads import (
    ORDER_VOCABULARY,
    fifo_fill,
    standard_constraints,
    submit_once,
    trace_with_out_of_order_fill,
)


def main() -> None:
    print("constraints under monitoring:")
    print(f"  submit_once: {submit_once()}")
    print(f"  fifo_fill:   {fifo_fill()}")
    print()

    # Generate 30 instants of order traffic with a FIFO violation injected
    # at t=15: the youngest open order is filled ahead of older ones.
    trace = trace_with_out_of_order_fill(30, violate_at=15, seed=11)
    print("injected fills:", trace.filled)
    print()

    monitor = IntegrityMonitor(
        standard_constraints(), History.empty(ORDER_VOCABULARY)
    )
    for state in trace.states():
        report = monitor.append_state(state)
        facts = sorted(state.facts())
        rendered = ", ".join(f"{p}{a}" for p, a in facts) or "(quiet)"
        flag = ""
        if report.new_violations:
            flag = "   <-- VIOLATION: " + ", ".join(report.new_violations)
        print(f"t={report.instant:>2}  {rendered:<30}{flag}")

    print()
    violations = monitor.violations()
    if violations:
        for name, instant in violations.items():
            print(f"constraint {name!r} irrecoverably violated at t={instant}")
    else:
        print("no violations detected")

    stats = monitor.stats()
    print()
    print("monitor work (per constraint):")
    for name, s in stats.items():
        print(f"  {name:<12} progressions={s.progressions:<4} "
              f"regrounds={s.regrounds:<3} sat_calls={s.sat_calls}")


if __name__ == "__main__":
    main()
