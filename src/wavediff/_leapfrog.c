/* The leapfrog of wavediff.wave: u_tt = (c^2 u_x)_x on n nodes.
 *
 * Built by wave._kernel with -ffp-contract=off and without -ffast-math, so
 * each node sees the IEEE operations of the tests' numpy reference loop
 * (reference_leapfrog) in the same order, and the fields are bit-identical
 * to it.
 */

/* Advance ``steps`` steps in place in the three rotating levels: after step
 * m the level that was ``next`` holds the newest field, the one that was
 * ``curr`` the previous one.  Per step: the flux f_j = c2h[j] (u_{j+1} - u_j)
 * on the n - 1 half cells, the interior update
 * next_j = (2 curr_j - prev_j) + lam2 (f_j - f_{j-1}), zero ends and the
 * sponge ramps: ``damp_lo`` on the first ``n_lo`` nodes and ``damp_hi`` on the
 * last ``n_hi``, applied to both ``next`` and ``curr``.  There is no source
 * term: the wave is launched by its two initial levels. */
void leapfrog(double *prev, double *curr, double *next, long n,
              const double *c2h, double lam2,
              const double *damp_lo, long n_lo,
              const double *damp_hi, long n_hi, long steps)
{
    for (long m = 0; m < steps; m++) {
        double f_left = c2h[0] * (curr[1] - curr[0]);
        for (long j = 1; j < n - 1; j++) {
            double f = c2h[j] * (curr[j + 1] - curr[j]);
            next[j] = (2.0 * curr[j] - prev[j]) + lam2 * (f - f_left);
            f_left = f;
        }
        next[0] = 0.0;
        next[n - 1] = 0.0;
        for (long j = 0; j < n_lo; j++) {
            next[j] *= damp_lo[j];
            curr[j] *= damp_lo[j];
        }
        double *next_hi = next + (n - n_hi), *curr_hi = curr + (n - n_hi);
        for (long j = 0; j < n_hi; j++) {
            next_hi[j] *= damp_hi[j];
            curr_hi[j] *= damp_hi[j];
        }
        double *free_level = prev;
        prev = curr;
        curr = next;
        next = free_level;
    }
}
