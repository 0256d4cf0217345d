/* The compiled integration windows of loewner.integrate: classical RK4
 * over a fixed grid and adaptive Dormand-Prince 4(5), each over one
 * schedule window of a Berkson-Porta field, in numpy's exact
 * floating-point operation order.
 *
 * Both numpy loops cost dozens of numpy calls per step on a 1- to
 * 64-point array, and call overhead, not arithmetic, dominates.
 * rk4_window and dp_window run a whole window in one call and reproduce
 * the numpy loops (integrate._rk4_steps, integrate._dp_steps) to the bit:
 *
 *   - every numpy expression of the field kernels (generators.frozen_at)
 *     and of the updates is evaluated in the same order, with a real
 *     operand promoted to a complex one with zero imaginary part, as
 *     numpy does, and without contraction (-ffp-contract=off);
 *   - complex multiply and square follow numpy's SIMD loops,
 *     re = fma(ar, br, -(ai*bi)), im = fma(ar, bi, ai*br);
 *   - complex divide follows numpy's Smith's method;
 *   - |y| uses numpy's complex abs, M*sqrt(fma(q, q, 1)) with
 *     q = min/max; np.max and np.maximum propagate NaN (so a NaN state
 *     never trips a guard, and a NaN error norm rejects the step);
 *   - the step-size controller is the Python of integrate._dp_steps:
 *     Python's float ** is libm pow, min(a, b) is b < a ? b : a and
 *     max(a, b) is b > a ? b : a, evaluated left to right.
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

/* Dormand-Prince 4(5) tableau of integrate._A, _E: the rows of stages
 * 2-6, then the weights of the propagated fifth-order solution; the
 * seventh stage is first-same-as-last */
static const double DP_A[6][6] = {
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};
static const double DP_E[7] = {71.0 / 57600, 0.0, -71.0 / 16695, 71.0 / 1920,
                               -17253.0 / 339200, 22.0 / 525, -1.0 / 40};

/* np.maximum: NaN if either operand is NaN */
INLINE double maximum_np(double a, double b) { return (a >= b || a != a) ? a : b; }

/* np.max over a running value: NaN once any value was NaN */
INLINE double max_np(double top, double a)
{
    return (top != top || a != a) ? (top != top ? top : a) : (a > top ? a : top);
}

/* integrate._step_once for one point: y5 and the scaled error vector */
INLINE void dp_step(const field *f, cplx w, cplx k1, double h, cplx *y5, cplx *k7, cplx *errv)
{
    cplx k[7], hh = real(h);
    k[0] = k1;
    for (int i = 1; i < 6; i++) {
        const double *row = DP_A[i - 1];
        cplx acc = mul(real(row[0]), k[0]);
        for (int j = 1; j < i; j++)
            acc = add(acc, mul(real(row[j]), k[j]));
        k[i] = eval(f, add(w, mul(hh, acc)));
    }
    cplx acc = mul(real(DP_A[5][0]), k[0]);
    for (int j = 1; j < 6; j++)
        if (DP_A[5][j] != 0.0)
            acc = add(acc, mul(real(DP_A[5][j]), k[j]));
    *y5 = add(w, mul(hh, acc));
    k[6] = *k7 = eval(f, *y5);
    cplx err = mul(real(DP_E[0]), k[0]);
    for (int j = 1; j < 7; j++)
        if (DP_E[j] != 0.0)
            err = add(err, mul(real(DP_E[j]), k[j]));
    *errv = mul(hh, err);
}

/* ctl: the controller state, kept between the calls of one window */
enum { T, H, ERR_PREV, GUARD_H, H_MIN, H_MAX, N_CTL };
/* count: accepted, rejected on error, rejected by the guard, rows written */
enum { ACCEPTED, REJECTED_ERROR, REJECTED_GUARD, ROWS, N_COUNT };
/* set: the window and its ToleranceSettings */
enum { T1, REL_TOL, ABS_TOL, MAX_STEP, MIN_STEP, BOUNDARY_GUARD, GUARD, N_SET };
enum { DONE = 0, ROWS_FULL = 1, STEP_UNDERFLOW = 2, BOUNDARY_GUARD_FAILED = 3 };

/* Advance the n points of state over [ctl[T], set[T1]] as
 * integrate._dp_steps does, from the controller state in ctl.  slope
 * holds G(state), computed here if fresh; work holds 2n points.  Each
 * accepted step adds one row (t, state) to rows_t and rows_w while
 * fewer than cap rows were written; the window then returns ROWS_FULL
 * and a call with the same buffers continues it.  A guard rejection
 * sets ctl[GUARD_H] to its h, a step the guard lets pass to -1.  Returns DONE,
 * ROWS_FULL, or the failure, with ctl and state at the last accepted
 * step and ctl[H] the step that underflowed. */
DISPATCH long dp_window(int kind, const double *tau, const double *start,
               const double *atoms, long m, const double *set, double *ctl,
               long *count, double *state, double *slope, double *work, long n,
               double *rows_t, double *rows_w, long cap, int fresh)
{
    field f = {kind, {tau[0], tau[1]}, {tau[0], -tau[1]}, {start[0], start[1]},
               (const cplx *)atoms, m};
    cplx *y = (cplx *)state, *k1 = (cplx *)slope, *y5 = (cplx *)work, *k7 = y5 + n;
    double t = ctl[T], h = ctl[H], err_prev = ctl[ERR_PREV], guard_h = ctl[GUARD_H];
    double h_min = ctl[H_MIN], h_max = ctl[H_MAX], t1 = set[T1];
    double limit = 1.0 - set[BOUNDARY_GUARD];
    double near_t1 = 1e-14 * (fabs(t1) > 1.0 ? fabs(t1) : 1.0);
    long rows = 0, status = DONE;
    if (fresh)
        for (long p = 0; p < n; p++)
            k1[p] = eval(&f, y[p]);
    while (t < t1) {
        if (rows == cap && rows_t) {
            status = ROWS_FULL;
            break;
        }
        h = t1 - t < h ? t1 - t : h;
        if (h < set[MIN_STEP] && t1 - t > set[MIN_STEP]) {
            status = guard_h >= 0.0 ? BOUNDARY_GUARD_FAILED : STEP_UNDERFLOW;
            break;
        }
        double top = -INFINITY, err = -INFINITY;
        for (long p = 0; p < n; p++) {
            cplx errv;
            dp_step(&f, y[p], k1[p], h, &y5[p], &k7[p], &errv);
            double a5 = cabs_np(y5[p]);
            double scale = set[ABS_TOL] + set[REL_TOL] * maximum_np(cabs_np(y[p]), a5);
            top = max_np(top, a5);
            err = max_np(err, cabs_np(errv) / scale);
        }
        if (set[GUARD] != 0.0 && top >= limit) {
            count[REJECTED_GUARD]++;
            guard_h = h;
            h *= 0.5;
            continue;
        }
        guard_h = -1.0;
        if (err <= 1.0) {
            count[ACCEPTED]++;
            h_min = h < h_min ? h : h_min;
            h_max = h > h_max ? h : h_max;
            double t_new = t + h;
            if (t1 - t_new <= near_t1)
                t_new = t1;
            t = t_new;
            for (long p = 0; p < n; p++) {
                y[p] = y5[p];
                k1[p] = k7[p];
            }
            if (rows_t) {
                rows_t[rows] = t;
                for (long p = 0; p < n; p++)
                    ((cplx *)rows_w)[rows * n + p] = y[p];
                rows++;
            }
            double e = 1e-10 > err ? 1e-10 : err;
            double fac = 0.9 * pow(e, -(0.7 / 5.0)) * pow(err_prev, 0.4 / 5.0);
            fac = fac > 0.2 ? fac : 0.2;
            fac = fac < 5.0 ? fac : 5.0;
            double next = h * fac;
            h = set[MAX_STEP] < next ? set[MAX_STEP] : next;
            err_prev = e;
        } else {
            count[REJECTED_ERROR]++;
            double fac = 0.9 * pow(err, -0.2);
            h *= fac > 0.2 ? fac : 0.2;
        }
    }
    ctl[T] = t, ctl[H] = h, ctl[ERR_PREV] = err_prev, ctl[GUARD_H] = guard_h;
    ctl[H_MIN] = h_min, ctl[H_MAX] = h_max;
    count[ROWS] = rows;
    return status;
}
