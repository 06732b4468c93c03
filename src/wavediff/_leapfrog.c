/* The leapfrog of wavediff.wave: u_tt = (c^2 u_x)_x on n nodes, and the
 * per-node densities of its staggered energy at each stored slice.
 *
 * Built by wave._kernel with -O3 -ffp-contract=off and without -ffast-math,
 * so each node sees the IEEE operations of the tests' numpy reference step
 * and energy (reference_step, reference_energy) in the same order, and the
 * fields and energies are bit-identical to them.
 *
 * The interior loop carries nothing from one node to the next: it computes
 * the left flux c2h[j-1] (u_j - u_{j-1}) again at each node instead of
 * keeping the previous node's right flux.  That is the same product of the
 * same operands, so it has the same bits, and it lets the compiler run the
 * loop on vector registers.  On x86-64 ELF targets with glibc, GCC and
 * Clang also build an AVX2 clone of the one exported function, chosen when
 * the library is loaded on a CPU that has AVX2; the static helpers inline
 * into both clones.  Each vector lane performs the scalar loop's IEEE
 * operations on its own node, in their order, and -ffp-contract=off keeps
 * the compiler from fusing a multiply and an add, so both clones give the
 * same bits.  Every other target builds the portable loop alone.
 */

#include <float.h>
#include <math.h>

/* target_clones dispatches through an ifunc, which glibc's loader resolves;
 * math.h above defines __GLIBC__ on glibc systems */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && (defined(__GNUC__) || defined(__clang__))
#define VECTOR_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define VECTOR_CLONES
#endif

/* One step: next_j = (2 curr_j - prev_j) + lam2 (f_j - f_{j-1}) on the
 * interior nodes, with the flux f_j = c2h[j] (u_{j+1} - u_j) on the n - 1
 * half cells, and zero ends. */
static inline void step(double *restrict next, const double *restrict curr,
                        const double *restrict prev, long n,
                        const double *restrict c2h, double lam2)
{
    for (long j = 1; j < n - 1; j++) {
        double f = c2h[j] * (curr[j + 1] - curr[j]);
        double f_left = c2h[j - 1] * (curr[j] - curr[j - 1]);
        next[j] = (2.0 * curr[j] - prev[j]) + lam2 * (f - f_left);
    }
    next[0] = 0.0;
    next[n - 1] = 0.0;
}

/* Multiply the first n values of both levels by damp. */
static inline void damp_both(double *restrict next, double *restrict curr,
                             const double *restrict damp, long n)
{
    for (long j = 0; j < n; j++) {
        next[j] *= damp[j];
        curr[j] *= damp[j];
    }
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
    for (long m = 0; m < steps; m++) {
        step(next, curr, prev, n, c2h, lam2);
        damp_both(next, curr, damp_lo, n_lo);
        damp_both(next + (n - n_hi), curr + (n - n_hi), damp_hi, n_hi);
        double *free_level = prev;
        prev = curr;
        curr = next;
        next = free_level;
    }
    return densities(curr, prev, n, c2h, dt, dx, kinetic, potential);
}
