/* Classical RK4 over one schedule window of a Berkson-Porta field, in
 * numpy's exact floating-point operation order.
 *
 * loewner.integrate.rk4_oracle runs its fixed-step grid through numpy;
 * each step costs about 60 numpy calls on a 16-point array, and call
 * overhead, not arithmetic, dominates.  rk4_window runs a whole window in
 * one call and reproduces the numpy loop to the bit:
 *
 *   - every numpy expression of the field kernels (generators.frozen_at)
 *     and of the RK4 update is evaluated in the same order, with a real
 *     operand promoted to a complex one with zero imaginary part, as
 *     numpy does, and without contraction (-ffp-contract=off);
 *   - complex multiply and square follow numpy's SIMD loops,
 *     re = fma(ar, br, -(ai*bi)), im = fma(ar, bi, ai*br);
 *   - complex divide follows numpy's Smith's method;
 *   - the guard max|y| >= 1 uses numpy's complex abs,
 *     M*sqrt(fma(q, q, 1)) with q = min/max, and numpy's max, which
 *     propagates NaN (so a NaN state never trips the guard).
 *
 * The loader (_rk4.py) probes all of this against numpy at load time and
 * uses numpy instead if any bit differs.
 */
#include <math.h>

/* fma() is a libm call unless the target has the instruction: build an
 * FMA clone of the window as well, with every helper inlined into it, and
 * let the dynamic loader pick the clone the CPU runs */
#if defined(__GNUC__) && defined(__x86_64__) && defined(__linux__)
#define DISPATCH __attribute__((target_clones("fma", "default")))
#define INLINE static inline __attribute__((always_inline))
#else
#define DISPATCH
#define INLINE static inline
#endif

typedef struct {
    double re, im;
} cplx;

enum { BP_CONST = 0, BP_HERGLOTZ = 1, RECIPROCAL = 2, COROLLARY = 3 };

typedef struct {
    int kind;
    cplx tau, taub, start;
    const cplx *atoms; /* m pairs (a_j, b_j) */
    long m;
} field;

INLINE cplx real(double x) { return (cplx){x, 0.0}; }
INLINE cplx add(cplx a, cplx b) { return (cplx){a.re + b.re, a.im + b.im}; }
INLINE cplx sub(cplx a, cplx b) { return (cplx){a.re - b.re, a.im - b.im}; }

INLINE cplx mul(cplx a, cplx b)
{
    return (cplx){fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
}

INLINE cplx divide(cplx a, cplx b)
{
    double br = fabs(b.re), bi = fabs(b.im);
    if (br >= bi) {
        if (br == 0.0 && bi == 0.0)
            return (cplx){a.re / br, a.im / br};
        double rat = b.im / b.re, scl = 1.0 / (b.re + b.im * rat);
        return (cplx){(a.re + a.im * rat) * scl, (a.im - a.re * rat) * scl};
    }
    double rat = b.re / b.im, scl = 1.0 / (b.im + b.re * rat);
    return (cplx){(a.re * rat + a.im) * scl, (a.im * rat - a.re) * scl};
}

INLINE double cabs_np(cplx a)
{
    double re = fabs(a.re), im = fabs(a.im);
    if (re == INFINITY || im == INFINITY)
        return INFINITY;
    if (re != re || im != im)
        return NAN;
    double big = re > im ? re : im, small = re > im ? im : re;
    double q = big == 0.0 ? 0.0 : small / big;
    return big * sqrt(fma(q, q, 1.0));
}

/* max |y_i| over n points, NaN if any |y_i| is NaN, -inf if n == 0 */
INLINE double max_modulus(const cplx *y, long n)
{
    double top = -INFINITY;
    for (long i = 0; i < n; i++) {
        double a = cabs_np(y[i]);
        if (a != a)
            return a;
        if (a > top)
            top = a;
    }
    return top;
}

/* max_modulus for the load-time probe */
double max_abs(const double *y, long n) { return max_modulus((const cplx *)y, n); }

/* start + sum_j term(a_j, b_j, z), added one by one in atom order */
INLINE cplx atom_sum(const field *f, cplx z)
{
    cplx acc = f->start;
    if (f->m == 0)
        return add(acc, real(0.0));
    for (long j = 0; j < f->m; j++) {
        cplx a = f->atoms[2 * j], b = f->atoms[2 * j + 1], term;
        if (f->kind == COROLLARY) /* b / (1 + a z) */
            term = divide(b, add(real(1.0), mul(a, z)));
        else /* b (a + z) / (a - z) */
            term = divide(mul(b, add(a, z)), sub(a, z));
        acc = add(acc, term);
    }
    return acc;
}

INLINE cplx eval(const field *f, cplx z)
{
    if (f->kind == COROLLARY) { /* 0.25 (1 - z)^2 (1 + z) q(z) */
        cplx u = sub(real(1.0), z);
        cplx g = mul(real(0.25), mul(u, u));
        return mul(mul(g, add(real(1.0), z)), atom_sum(f, z));
    }
    /* (tau - z)(1 - conj(tau) z) times p(z), or divided by h(z) */
    cplx g = mul(sub(f->tau, z), sub(real(1.0), mul(f->taub, z)));
    if (f->kind == BP_CONST)
        return mul(g, f->start);
    if (f->kind == BP_HERGLOTZ)
        return mul(g, atom_sum(f, z));
    return divide(g, atom_sum(f, z));
}

/* Advance the n points y over grid[0] < ... < grid[nt - 1] with the field
 * of the given kind.  Returns -1, or the index i of the first step
 * grid[i] -> grid[i + 1] after which max|y| >= 1; y then holds the state
 * after that step. */
DISPATCH long rk4_window(int kind, const double *tau, const double *start,
                const double *atoms, long m, const double *grid, long nt,
                double *state, long n)
{
    field f = {kind, {tau[0], tau[1]}, {tau[0], -tau[1]}, {start[0], start[1]},
               (const cplx *)atoms, m};
    cplx *y = (cplx *)state;
    for (long i = 0; i + 1 < nt; i++) {
        double h = grid[i + 1] - grid[i];
        cplx half = real(0.5 * h), full = real(h), sixth = real(h / 6.0);
        for (long p = 0; p < n; p++) {
            cplx w = y[p];
            cplx k1 = eval(&f, w);
            cplx k2 = eval(&f, add(w, mul(half, k1)));
            cplx k3 = eval(&f, add(w, mul(half, k2)));
            cplx k4 = eval(&f, add(w, mul(full, k3)));
            cplx k = add(add(add(k1, mul(real(2.0), k2)), mul(real(2.0), k3)), k4);
            y[p] = add(w, mul(sixth, k));
        }
        if (max_modulus(y, n) >= 1.0)
            return i;
    }
    return -1;
}
