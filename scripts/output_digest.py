"""One digest of every seed-0 output of the benchmark workloads, or a
comparison of those outputs between two source trees.

For each workload of perfbench/workloads.py, one pass at seed 0 prints:

- an md5 over every output: E, nodes, grid, psi1 and psi2 of each
  solve_batch state, and the bytes of each verify JSON file;
- the number of match_values and propagate calls;
- the step x batch entries of the propagate calls.

Two source trees that print the same lines give bitwise the same outputs
through the same number of evaluations. Usage, from anywhere:

    python3 scripts/output_digest.py [CHECKOUT] [--against OTHER_CHECKOUT]

CHECKOUT (default: the checkout holding this script) is the source tree
whose src/ and perfbench/ are imported; perfbench/ is only read, and the
verify files go to a temporary directory. A run takes about 2 s.

With --against, each tree runs its pass in a subprocess of its own, and
per workload the script prints the largest |E - E_other| over every
solve_batch state and verify record, whether every (family, n_r) index and
node count match, and whether the verify exit codes and verdicts match. It
exits 1 when an index, a node count, an exit code or a verdict differs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def _counting(prop, counts):
    """Wrap prop.match_values and prop.propagate to count their calls and
    the propagated step x batch entries."""
    match_values, propagate = prop.match_values, prop.propagate

    def counted_match_values(*args, **kwargs):
        counts["match_values"] += 1
        return match_values(*args, **kwargs)

    def counted_propagate(table, fam_idx, E, y0, i_from, i_to, *args, **kwargs):
        counts["propagate"] += 1
        counts["step_elems"] += abs(i_to - i_from) * int(np.size(E))
        return propagate(table, fam_idx, E, y0, i_from, i_to, *args, **kwargs)

    prop.match_values, prop.propagate = counted_match_values, counted_propagate
    return lambda: (setattr(prop, "match_values", match_values),
                    setattr(prop, "propagate", propagate))


def _passes(root):
    """Yield (workload, counts, outputs) for one seed-0 pass of each workload
    of the checkout at root. An output is the states of a solve_batch, or
    (exit code, bytes of the file written) of a verify run."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True    # the checkout is only read
    from diracmono import propagation as prop
    import workloads

    for name in sorted(workloads.WORKLOADS):
        counts = {"match_values": 0, "propagate": 0, "step_elems": 0}
        outputs = []
        with tempfile.TemporaryDirectory() as out_dir:
            restore = _counting(prop, counts)
            try:
                for op in workloads.build_operations(name, 0, out_dir):
                    value = op.run()
                    if isinstance(value, tuple):      # a verify run: (exit code, path)
                        code, path = value
                        with open(path, "rb") as fh:
                            value = (code, fh.read())
                    outputs.append(value)
            finally:
                restore()
        yield name, counts, outputs


def _digest_output(md5, value):
    """Fold one operation's output into md5."""
    if isinstance(value, tuple):
        code, text = value
        md5.update(str(code).encode())
        md5.update(text)
        return
    for per_family in value:
        for n_r in sorted(per_family):
            st = per_family[n_r]
            md5.update(np.float64(st.E).tobytes())
            md5.update(str((n_r, st.nodes)).encode())
            for name in ("grid", "psi1", "psi2"):
                a = getattr(st, name, None)
                if a is not None:
                    md5.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _records(outputs) -> dict:
    """What --against compares of one workload's outputs: the E of each
    state and verify record by its key, the node count of each state, and
    the exit code and verdicts (all but their residuals) of each verify run."""
    energies, nodes, verdicts = {}, {}, []
    for i, value in enumerate(outputs):
        if isinstance(value, tuple):
            code, text = value
            doc = json.loads(text)
            verdicts.append([code, doc["status"]] + [
                {k: v[k] for k in ("n_r", "status", "hypothesis", "conclusion", "checks")}
                for v in doc["verdicts"]])
            for v in doc["verdicts"]:
                for a, rec in enumerate(v["records"]):
                    energies[f"{i} verify n_r={v['n_r']} a[{a}]"] = rec["E"]
            continue
        for f, per_family in enumerate(value):
            for n_r, st in per_family.items():
                key = f"{i} family {f} n_r={n_r}"
                energies[key], nodes[key] = st.E, st.nodes
    return {"energies": energies, "nodes": nodes, "verdicts": verdicts}


def _compare(ours, theirs) -> int:
    """Print the comparison of each workload's records; 1 if any index,
    node count, exit code or verdict differs, else 0."""
    status = 0
    for name in sorted(ours):
        a, b = ours[name], theirs.get(name)
        if b is None:
            print(f"{name}: missing from the other tree")
            status = 1
            continue
        same_keys = a["energies"].keys() == b["energies"].keys()
        shared = a["energies"].keys() & b["energies"].keys()
        d_e = max((abs(a["energies"][k] - b["energies"][k]) for k in shared), default=0.0)
        same_nodes = same_keys and a["nodes"] == b["nodes"]
        same_verdicts = a["verdicts"] == b["verdicts"]
        status |= not (same_nodes and same_verdicts)
        print(f"{name}: max |dE| {d_e:.3g} over {len(shared)} energies; "
              f"indices and nodes {'match' if same_nodes else 'DIFFER'}; "
              f"verify exit codes and verdicts "
              f"{'match' if same_verdicts else 'DIFFER'} ({len(a['verdicts'])} runs)")
    return status


def _records_of(root) -> dict:
    """Records of every workload of the checkout at root, from a subprocess
    of its own."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), root, "--records"],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."))
    parser.add_argument("--against", metavar="OTHER_CHECKOUT")
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.checkout)
    if args.against:
        return _compare(_records_of(root), _records_of(os.path.abspath(args.against)))
    if args.records:
        json.dump({name: _records(outputs) for name, _, outputs in _passes(root)},
                  sys.stdout)
        return 0
    for name, counts, outputs in _passes(root):
        md5 = hashlib.md5()
        for value in outputs:
            _digest_output(md5, value)
        print(f"{name}: md5 {md5.hexdigest()}, match_values {counts['match_values']}, "
              f"propagate {counts['propagate']}, step x batch {counts['step_elems']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
