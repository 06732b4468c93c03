/* The leapfrog of wavediff.wave: u_tt = (c^2 u_x)_x on n nodes, and the
 * per-node densities of its staggered energy at each stored slice.
 *
 * Built by wave._kernel with -O3 -ffp-contract=off and without -ffast-math,
 * so each node sees the IEEE operations of the tests' numpy reference step
 * and energy (reference_step, reference_energy) in the same order, and the
 * fields and energies are bit-identical to them.
 *
 * The steps run in a skewed space-time sweep, so the levels stay in cache
 * between steps instead of streaming the whole grid through it once per
 * step.  The grid is walked in tiles of TILE nodes, each carrying every
 * step of the call: in tile a, step s (s = 0, 1, ...) computes level s + 1
 * on the nodes [a - s, a + TILE - s), clipped to the grid, so each step's
 * range sits one node left of the previous one's.  Node j of level s + 1 reads level s at j + 1, which this tile's
 * step s - 1 computed, and at j - 1, which this tile or an earlier one
 * computed.  Level s + 1 overwrites level s - 2, whose last readers, level
 * s - 1 at j + 1 and level s at j, ran before it.
 *
 * The sponge damps each level twice: once when it is computed, and once
 * after the next level is.  The first damping runs on the tile's range
 * right after the step.  The second, of level s, runs on [lo - 1, hi - 1)
 * (up to n at the right end of the grid), where [lo, hi) is the range just
 * computed: the three nodes of level s + 1 that read each of those nodes
 * are done by then, and level s + 2, which reads the damped value at the
 * same node, runs on exactly that range in the tile's next step.
 *
 * So every node sees the same operands, in the same order, as in a sweep
 * of the whole grid per step, and the bits do not depend on TILE.
 * The energy densities are computed after the last step, over the grid.
 *
 * The interior loop carries nothing from one node to the next: it computes
 * the left flux c2h[j-1] (u_j - u_{j-1}) again at each node instead of
 * keeping the previous node's right flux.  That is the same product of the
 * same operands, so it has the same bits, and it lets the compiler run the
 * loop on vector registers.  On x86-64 ELF targets with glibc, GCC and
 * Clang also build AVX2 and AVX-512 clones of the one exported function,
 * and the loader picks the widest one the CPU has; the static helpers
 * inline into every clone.  Each vector lane performs the scalar loop's
 * IEEE operations on its own node, in their order, and -ffp-contract=off
 * keeps the compiler from fusing a multiply and an add, so every clone
 * gives the same bits.  Every other target builds the portable loop alone.
 */

#include <float.h>
#include <math.h>

/* target_clones dispatches through an ifunc, which glibc's loader resolves;
 * math.h above defines __GLIBC__ on glibc systems */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && (defined(__GNUC__) || defined(__clang__))
#define VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define VECTOR_CLONES
#endif

/* the sweep's tile width in nodes: three levels and the half-cell speeds of
 * one tile take about 16 KB, which fits an L1 data cache */
#define TILE 512

static inline long min_long(long a, long b) { return a < b ? a : b; }
static inline long max_long(long a, long b) { return a > b ? a : b; }

/* One step on the nodes [lo, hi) of the n: next_j = (2 curr_j - prev_j)
 * + lam2 (f_j - f_{j-1}) on the interior nodes, with the flux
 * f_j = c2h[j] (u_{j+1} - u_j) on the n - 1 half cells, and zero ends. */
static inline void step(double *restrict next, const double *restrict curr,
                        const double *restrict prev, long lo, long hi, long n,
                        const double *restrict c2h, double lam2)
{
    long end = min_long(hi, n - 1);
    for (long j = max_long(lo, 1); j < end; j++) {
        double f = c2h[j] * (curr[j + 1] - curr[j]);
        double f_left = c2h[j - 1] * (curr[j] - curr[j - 1]);
        next[j] = (2.0 * curr[j] - prev[j]) + lam2 * (f - f_left);
    }
    if (lo == 0)
        next[0] = 0.0;
    if (hi == n)
        next[n - 1] = 0.0;
}

/* Multiply the nodes [lo, hi) of u by the sponge: damp_lo on the first
 * n_lo of the n nodes, damp_hi on the last n_hi. */
static inline void damp(double *restrict u, long lo, long hi, long n,
                        const double *restrict damp_lo, long n_lo,
                        const double *restrict damp_hi, long n_hi)
{
    long end = min_long(hi, n_lo);
    for (long j = lo; j < end; j++)
        u[j] *= damp_lo[j];
    for (long j = max_long(lo, n - n_hi); j < hi; j++)
        u[j] *= damp_hi[j - (n - n_hi)];
}

/* The staggered energy's densities of the levels u_new and u_old on n
 * nodes: kinetic_j = ((u_new_j - u_old_j) / dt)^2 on the n nodes and
 * potential_j = (c2h[j] ((u_new_{j+1} - u_new_j) / dx))
 * ((u_old_{j+1} - u_old_j) / dx) on the n - 1 half cells.  Returns 1 when
 * every value of u_new is finite and 0 otherwise. */
static inline int densities(const double *restrict u_new, const double *restrict u_old,
                            long n, const double *restrict c2h, double dt, double dx,
                            double *restrict kinetic, double *restrict potential)
{
    int finite = 1;
    for (long j = 0; j < n; j++) {
        double ut = (u_new[j] - u_old[j]) / dt;
        kinetic[j] = ut * ut;
        finite &= fabs(u_new[j]) <= DBL_MAX;  /* false for inf and nan */
    }
    for (long j = 0; j < n - 1; j++) {
        double g_new = (u_new[j + 1] - u_new[j]) / dx;
        double g_old = (u_old[j + 1] - u_old[j]) / dx;
        potential[j] = (c2h[j] * g_new) * g_old;
    }
    return finite;
}

/* Advance ``steps`` steps in place in the three rotating levels: after step
 * m the level that was ``next`` holds the newest field, the one that was
 * ``curr`` the previous one.  Each step is ``step`` and then the sponge
 * ramps: ``damp_lo`` on the first ``n_lo`` nodes and ``damp_hi`` on the
 * last ``n_hi``, applied to both ``next`` and ``curr``, with
 * lam2 = (dt / dx)^2.  There is no source term: the wave is launched by its
 * two initial levels.  Then write the energy densities of the two newest
 * levels into ``kinetic`` (n values) and ``potential`` (n - 1) and return
 * whether the newest level is finite; with ``steps`` 0 these are the levels
 * ``curr`` and ``prev`` as given. */
VECTOR_CLONES
int leapfrog(double *prev, double *curr, double *next, long n,
             const double *c2h, double lam2,
             const double *damp_lo, long n_lo,
             const double *damp_hi, long n_hi,
             double dt, double dx, double *kinetic, double *potential, long steps)
{
    /* level s (the given curr is level 0) is lv[(s + 1) % 3] */
    double *lv[3] = {prev, curr, next};
    for (long a = 0; a - (steps - 1) < n; a += TILE) {
        for (long s = 0; s < steps; s++) {
            long lo = max_long(a - s, 0), hi = min_long(a + TILE - s, n);
            if (lo >= hi)
                continue;
            double *u_new = lv[(s + 2) % 3], *u = lv[(s + 1) % 3];
            step(u_new, u, lv[s % 3], lo, hi, n, c2h, lam2);
            damp(u_new, lo, hi, n, damp_lo, n_lo, damp_hi, n_hi);
            damp(u, max_long(lo - 1, 0), hi == n ? n : hi - 1, n,
                 damp_lo, n_lo, damp_hi, n_hi);
        }
    }
    return densities(lv[(steps + 1) % 3], lv[steps % 3], n, c2h, dt, dx, kinetic, potential);
}
