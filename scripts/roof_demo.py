"""Convex-roof negativity of the pair reductions at the tangle-zero point.

The minus-branch state at the three-tangle zero keeps all of its focus
entanglement in pairwise form.  Its two-qubit reductions are mixed, so the
pair entanglement has to be measured through the roof extension; the direct
negativity of the reduced density matrix undershoots it.
"""

import sys

import numpy as np

import ktangle as kt


def main():
    q = kt.tau3_minus_zero()
    psi = kt.build_ghzw(kt.GhzwParams(q=q, sign=-1))
    print(f"state: minus branch at q = {q:.8f} (three tangle = 0)")

    total = 0.0
    for pair in ((0, 1), (0, 2)):
        rho2 = kt.partial_trace(kt.outer(psi), list(pair))
        direct = kt.negativity_from_pt(kt.global_pt(rho2, 0), 2)
        roof = kt.roof_negativity(rho2, 0, "global")
        wtangle = kt.wootters_tangle(rho2)
        total += roof.value**2
        print(f"pair {pair}: direct = {direct:.6f}  roof = {roof.value:.6f} ({roof.bound})")
        print(f"  roof^2 = {roof.value ** 2:.6f} vs wootters tangle {wtangle:.6f}")

    tan = kt.three_tangle(psi, 0)
    ng = kt.negativity_from_pt(kt.global_pt(kt.outer(psi), 0), 2)
    print(f"sum of squared pair roofs = {total:.6f}")
    print(f"one tangle (n_global^2)  = {ng ** 2:.6f}, residual three tangle = {tan.tau3:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
