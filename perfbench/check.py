"""Output checks for one benchmark operation.

Each check returns a list of failure reasons; an empty list means the
operation's output is correct. Efficiency and the cross-method gaps are
recomputed from the payoffs in the captured JSON, not read from the report's
own summary.
"""

from __future__ import annotations

import hashlib
import json
import math

TOL = 1e-9          # closed form vs exact, and efficiency (relative)
SAMPLE_Z = 5.0      # sampled payoffs must lie within this many stderr


def check_solve(payload: dict) -> list[str]:
    reasons = []
    allocations = payload["allocations"]
    for key, alloc in allocations.items():
        grand = alloc["grand_value"]
        gap = abs(math.fsum(alloc["payoffs"]) - grand)
        if not gap <= TOL * max(1.0, abs(grand)):
            reasons.append(f"{key}: efficiency gap {gap:.3g} on grand value {grand:.6g}")
    closed = allocations.get("closed_form")
    exact = allocations.get("exact")
    if closed and exact:
        gap = max(abs(a - b) for a, b in zip(closed["payoffs"], exact["payoffs"]))
        if not gap <= TOL:
            reasons.append(f"closed form vs exact: max gap {gap:.3g} > {TOL:g}")
    axioms = payload.get("axioms")
    if axioms is not None and not axioms["all_ok"]:
        reasons.append(f"axioms not all ok: {axioms}")
    sampled = allocations.get("sampled")
    if closed and sampled:
        for i, (s, c, se) in enumerate(zip(sampled["payoffs"], closed["payoffs"],
                                           sampled["stderr"])):
            if not abs(s - c) <= SAMPLE_Z * se + TOL * max(1.0, abs(c)):
                reasons.append(f"player {i}: sampled {s:.6g} is more than "
                               f"{SAMPLE_Z:g} stderr ({se:.3g}) from closed form {c:.6g}")
                break
    return reasons


def check_sweep(payload: dict, n_values: list[int]) -> list[str]:
    rows = [row["n"] for row in payload["rows"]]
    return [] if rows == n_values else [f"sweep rows {rows} != requested {n_values}"]


def check_empirical(payload: dict) -> list[str]:
    share = payload["payout"] / payload["window_revenue"]
    if math.isclose(share, payload["share"], rel_tol=TOL):
        return []
    return [f"share {payload['share']!r} != payout / window revenue {share!r}"]


def digest(stdout: str) -> bytes:
    return hashlib.sha256(stdout.encode("utf-8")).digest()


def check_output(command: str, args: list[str], exit_code: int | None, stdout: str,
                 rerendered: str | None, earlier: bytes | None) -> list[str]:
    """All checks for one operation, from its exit code and captured stdout.

    `rerendered` is the same report rendered a second time after the call, or
    None for commands that print without a report; `earlier` is the digest of
    an earlier execution's output for the same operation in this run, or None.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if rerendered is not None and rerendered != stdout:
        return ["rendering the same report twice gave different bytes"]
    if earlier is not None and earlier != digest(stdout):
        return ["output differs from an earlier execution of the same operation"]
    if command == "validate":
        return [] if stdout.startswith("ok: ") else [f"validate printed {stdout!r}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if command == "solve":
        return check_solve(payload)
    if command == "sweep":
        n_values = args[args.index("--n-values") + 1]
        return check_sweep(payload, [int(n) for n in n_values.split(",")])
    if command == "empirical":
        return check_empirical(payload)
    return [f"unknown command {command!r}"]
