"""One digest of every seed-0 output of the benchmark workloads.

For each workload of perfbench/workloads.py, one pass at seed 0 prints:

- an md5 over every output: E, nodes, grid, psi1 and psi2 of each
  solve_batch state, and the bytes of each verify JSON file;
- the number of match_values and propagate calls;
- the step x batch entries of the propagate calls.

Two source trees that print the same lines give bitwise the same outputs
through the same number of evaluations. Usage, from anywhere:

    python3 scripts/output_digest.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is the source tree
whose src/ and perfbench/ are imported; perfbench/ is only read, and the
verify files go to a temporary directory. A run takes about 2 s.
"""

import hashlib
import os
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


def _digest_output(md5, value):
    """Fold one operation's output into md5: the states of a solve_batch,
    or the file a verify run wrote."""
    if isinstance(value, tuple):          # a verify run: (exit code, path)
        code, path = value
        md5.update(str(code).encode())
        with open(path, "rb") as fh:
            md5.update(fh.read())
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True    # the checkout is only read
    from diracmono import propagation as prop
    import workloads

    for name in sorted(workloads.WORKLOADS):
        counts = {"match_values": 0, "propagate": 0, "step_elems": 0}
        md5 = hashlib.md5()
        with tempfile.TemporaryDirectory() as out_dir:
            restore = _counting(prop, counts)
            try:
                for op in workloads.build_operations(name, 0, out_dir):
                    _digest_output(md5, op.run())
            finally:
                restore()
        print(f"{name}: md5 {md5.hexdigest()}, match_values {counts['match_values']}, "
              f"propagate {counts['propagate']}, step x batch {counts['step_elems']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
