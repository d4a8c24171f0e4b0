"""Print one SHA-256 digest of the full-vector runners' outputs.

Runs run_sphere_chain, run_flat_chain and run_hyperbolic_chain (trace on and
off, final point kept), run_operator_product (final vector kept; every fifth
seed puts a negative scalar factor second) and the public step functions over
seeds 0-199 and n in {3, 5, 10, 50}, and hashes the bytes of every output.
Run it on two commits to check that a change leaves these outputs
byte-identical:

    PYTHONPATH=src python scripts/runner_digest.py
"""

import hashlib
import math

import numpy as np

import randsteps as rs


def main():
    digest = hashlib.sha256()
    count = 0

    def feed(*values):
        nonlocal count
        for value in values:
            count += 1
            digest.update(b"None" if value is None else np.asarray(value, dtype=np.float64).tobytes())

    for n in (3, 5, 10, 50):
        e1 = np.zeros(n)
        e1[0] = 1.0
        u, h = rs.UnitVector(e1), rs.HyperboloidPoint(e1)
        for seed in range(200):
            gen = np.random.default_rng(seed)
            m = 1 + seed % 6
            thetas = list(gen.uniform(0.0, math.pi, m))
            ds = list(gen.uniform(0.0, 3.0, m))
            xis = list(gen.uniform(0.0, 2.0, m))
            for trace in (False, True):
                for r in (
                    rs.run_sphere_chain(u, thetas, rs.RandomStream(seed, n), trace, True),
                    rs.run_flat_chain(ds, n, rs.RandomStream(seed, n), trace, True),
                    rs.run_hyperbolic_chain(h, xis, rs.RandomStream(seed, n), trace, True),
                ):
                    feed(r.observable, r.final_point, r.path)
            spectra = [gen.normal(size=n) for _ in range(m)]
            if seed % 5 == 0:
                spectra.insert(1, np.full(n, -1.5))
            r = rs.run_operator_product(spectra, u, rs.RandomStream(seed, n), keep_final=True)
            feed(r.norm_ratio, r.cosine, r.degenerate, r.final_vector)
            feed(
                rs.sphere_step(u, thetas[0], rs.RandomStream(seed, 1)).values,
                rs.flat_step(e1, ds[0], rs.RandomStream(seed, 2)),
                rs.hyperbolic_step(h, xis[0], rs.RandomStream(seed, 3)).values,
                rs.uniform_unit_sphere(n, rs.RandomStream(seed, 4)).values,
            )
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
