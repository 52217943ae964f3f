/* Native kernel tier: whole-matrix row loops for masked SpGEMM.
 *
 * The paper's Algorithm 2 (MSA) and Section 4.1 (Inner) row loops plus the
 * count-only symbolic row, one accumulator per call (the thread backend
 * runs one call per row part, so that is one accumulator per thread; no
 * atomics), and the counting sort repro.sparse orders entries with.
 * Built and loaded by native.py; see docs/kernels.md.
 *
 * Contract with the NumPy bodies (msa_kernel.py / inner_kernel.py /
 * symbolic.py), which stay the reference and the fallback:
 *   - every product is accumulated in expansion order onto a value that
 *     starts at the add identity 0.0, with a separate multiply and add
 *     (build with -ffp-contract=off), so floats are bit-identical to
 *     np.bincount / ufunc.at -- NaN sign included, see add();
 *   - rows come out column-ascending;
 *   - the counters returned in cnt[] are the same per-row sums.
 * Indices are never trusted: the Python wrapper runs repro_check on every
 * operand first, after which all accesses below are in bounds even for
 * unsorted or duplicated rows (the result is then as wrong as the
 * caller's sortedness claim, but nothing is written out of bounds).
 *
 * Scratch (state: ncols bytes, val: ncols doubles, where: ncols(A) int32)
 * is all-zero at rest and restored cell by cell after every row; touched
 * (ncols + 1 int64) is a write-before-read list, and so is the MSA rows'
 * hit buffer (HITS words on the C stack, so every call -- every thread of
 * the thread backend -- has its own).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
#define INLINE static inline __attribute__((always_inline))

/* multiply operators of the np.add-monoid standard semirings */
enum { TIMES = 0, PAIR = 1, AND = 2, FIRST = 3, SECOND = 4 };
/* complement rows whose touched column span is under this many cells per
 * touched cell are ordered by a scan of the span instead of a sort */
#define SCAN_SPAN 64
/* accumulator cell states */
enum { EMPTY = 0, ALLOWED = 1, SET = 2, MASKED = 3 };

#define READS_A(op) ((op) != PAIR && (op) != SECOND)
#define READS_B(op) ((op) != PAIR && (op) != FIRST)

INLINE double mul(const int op, double x, double y)
{
    switch (op) {
    case TIMES: return x * y;
    case PAIR: return 1.0;
    case AND: return (x != 0.0 && y != 0.0) ? 1.0 : 0.0; /* NaN is truthy */
    case FIRST: return x;
    default: return y;
    }
}

/* acc (+) p.  Where two NaNs meet, the sum keeps the accumulator's -- what
 * the hardware add behind np.bincount / np.add.at does with `acc += w` --
 * spelled out so it does not depend on how the compiler orders the operands
 * (PAIR and AND products are never NaN). */
INLINE double add(const int op, double acc, double p)
{
    return (op == PAIR || op == AND || acc == acc) ? acc + p : acc;
}

/* `body` specialised per operator: op is a compile-time constant inside */
#define DISPATCH(body, ...)                                  \
    switch (op) {                                            \
    case TIMES: return body(TIMES, __VA_ARGS__);             \
    case PAIR: return body(PAIR, __VA_ARGS__);               \
    case AND: return body(AND, __VA_ARGS__);                 \
    case FIRST: return body(FIRST, __VA_ARGS__);             \
    case SECOND: return body(SECOND, __VA_ARGS__);           \
    default: return -1;                                      \
    }

static int cmp_i64(const void *x, const void *y)
{
    i64 a = *(const i64 *)x, b = *(const i64 *)y;
    return (a > b) - (a < b);
}

/* 0 ok, 1 malformed indptr, 2 column index out of range */
i64 repro_check(i64 nrows, i64 ncols, const i64 *p, const i64 *j, i64 nnz)
{
    if (p[0] != 0 || p[nrows] != nnz)
        return 1;
    for (i64 i = 0; i < nrows; i++)
        if (p[i] > p[i + 1])
            return 1;
    int bad = 0;
    for (i64 t = 0; t < nnz; t++)
        bad |= (uint64_t)j[t] >= (uint64_t)ncols;
    return bad ? 2 : 0;
}

/* ------------------------------------------------------------------ */
/* Stable counting sort of n keys in [0, nbuckets): the one ordering  */
/* loop under CSR.from_coo / CSR.transpose.  order[] gets the input   */
/* positions in key order, ties in input order -- the permutation of  */
/* np.argsort(kind="stable"), so what is built from it is byte-equal  */
/* to the NumPy bodies' result; start[nbuckets + 1] gets the bucket   */
/* offsets (the indptr of the keyed axis).  A payload may ride the    */
/* same pass: idst[] / vdst[] get isrc[] (int64) / vsrc[] (any 8-byte */
/* value) in the new order.  order, isrc and vsrc may each be NULL.   */
/* Returns -1, with nothing written, when a key is out of range.      */
/* ------------------------------------------------------------------ */
i64 repro_bucket_order(i64 n, i64 nbuckets, const i64 *key, i64 *start,
                       i64 *order, const i64 *isrc, i64 *idst,
                       const uint64_t *vsrc, uint64_t *vdst)
{
    int bad = 0;
    for (i64 t = 0; t < n; t++)
        bad |= (uint64_t)key[t] >= (uint64_t)nbuckets;
    if (bad)
        return -1;
    memset(start, 0, (size_t)(nbuckets + 1) * sizeof(i64));
    for (i64 t = 0; t < n; t++)
        start[key[t] + 1]++;
    for (i64 k = 0; k < nbuckets; k++)
        start[k + 1] += start[k];
    for (i64 t = 0; t < n; t++) { /* start[k]: bucket k's write cursor */
        const i64 at = start[key[t]]++;
        if (order)
            order[at] = t;
        if (isrc)
            idst[at] = isrc[t];
        if (vsrc)
            vdst[at] = vsrc[t];
    }
    /* each cursor stopped at its bucket's end: the next bucket's start */
    memmove(start + 1, start, (size_t)nbuckets * sizeof(i64));
    start[0] = 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* The product loop of one MSA row, in two steps, because whether a   */
/* product meets the mask is a coin on skewed inputs (a fifth to a    */
/* third of R-MAT triangle-counting products do) and a branch on it   */
/* costs more than the product.  FILTER writes every product of the   */
/* expansion to hit[] -- its position in B and its A entry, counted   */
/* from the first A entry since the last flush, in one word -- and    */
/* advances the cursor by the state test.  APPLY walks the hits that  */
/* stayed, in buffer order = expansion order, whenever the rest of a  */
/* B row may not fit, HITS entries of A have gone by, and at the end  */
/* of the row; only a hit is multiplied, so a miss loads no value.    */
/* `complement` is a compile-time constant: it picks the state a      */
/* product misses on and appends first touches to touched[nt...] (a   */
/* store and a conditional advance: it may write one cell past the    */
/* live end).  Adds the hits applied to *flops and the products       */
/* expanded to *inserts; returns the number of first touches.         */
/* ------------------------------------------------------------------ */
#define HITS 512

INLINE i64 msa_apply(const int op, const int complement, i64 n,
                     const uint64_t *hit, const double *ax, const i64 *bj,
                     const double *bv, uint8_t *state, double *val,
                     i64 *touched, i64 nt)
{
    for (i64 h = 0; h < n; h++) {
        const i64 t = (i64)(hit[h] / HITS), c = bj[t];
        const double x = READS_A(op) ? ax[hit[h] % HITS] : 0.0;
        if (complement) {
            touched[nt] = c;
            nt += state[c] == EMPTY;
        }
        state[c] = SET;
        val[c] = add(op, val[c], mul(op, x, READS_B(op) ? bv[t] : 0.0));
    }
    return nt;
}

INLINE i64 msa_row(const int op, const int complement, i64 a0, i64 a1,
                   const i64 *aj, const double *av,
                   const i64 *bp, const i64 *bj, const double *bv,
                   uint8_t *state, double *val, i64 *touched,
                   i64 *flops, i64 *inserts)
{
    uint64_t hit[HITS];
    const uint8_t miss = complement ? MASKED : EMPTY;
    i64 n = 0, j0 = a0, nt = 0;
    for (i64 j = a0; j < a1; j++) {
        const i64 k = aj[j], b1 = bp[k + 1];
        i64 t = bp[k];
        *inserts += b1 - t;
        while (t < b1) {
            if (b1 - t > HITS - n || j - j0 >= HITS) {
                nt = msa_apply(op, complement, n, hit, av + j0, bj, bv, state,
                               val, touched, nt);
                *flops += n;
                n = 0;
                j0 = j;
            }
            /* room for the rest of the row, or the buffer is empty */
            const i64 stop = b1 - t > HITS ? t + HITS : b1;
            for (; t < stop; t++) {
                hit[n] = (uint64_t)t * HITS + (uint64_t)(j - j0);
                n += state[bj[t]] != miss;
            }
        }
    }
    *flops += n;
    return msa_apply(op, complement, n, hit, av + j0, bj, bv, state, val,
                     touched, nt);
}

/* ------------------------------------------------------------------ */
/* MSA, plain mask: set-allowed / insert / gather over the mask row.   */
/* Output needs at most nnz(M) cells, so it never runs out of room.    */
/* cnt: [0] products kept (flops), [1] products expanded (inserts)     */
/* ------------------------------------------------------------------ */
INLINE i64 msa_plain(const int op, i64 nrows,
                     const i64 *ap, const i64 *aj, const double *av,
                     const i64 *bp, const i64 *bj, const double *bv,
                     const i64 *mp, const i64 *mj,
                     uint8_t *state, double *val,
                     i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    i64 nnz = 0, flops = 0, inserts = 0;
    cp[0] = 0;
    for (i64 i = 0; i < nrows; i++) {
        const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
        if (a0 != a1 && m0 == m1) /* nothing allowed: only the charge */
            for (i64 j = a0; j < a1; j++)
                inserts += bp[aj[j] + 1] - bp[aj[j]];
        if (a0 == a1 || m0 == m1) {
            cp[i + 1] = nnz;
            continue;
        }
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = ALLOWED;
        msa_row(op, 0, a0, a1, aj, av, bp, bj, bv, state, val, NULL, &flops,
                &inserts);
        for (i64 m = m0; m < m1; m++) {
            const i64 c = mj[m];
            if (state[c] == SET) { /* a sum cancelling to 0.0 stays SET */
                cj[nnz] = c;
                cv[nnz++] = val[c];
                val[c] = 0.0;
            }
            state[c] = EMPTY;
        }
        cp[i + 1] = nnz;
    }
    cnt[0] += flops;
    cnt[1] += inserts;
    return nnz;
}

i64 repro_msa(i64 op, i64 nrows,
              const i64 *ap, const i64 *aj, const double *av,
              const i64 *bp, const i64 *bj, const double *bv,
              const i64 *mp, const i64 *mj, uint8_t *state, double *val,
              i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    DISPATCH(msa_plain, nrows, ap, aj, av, bp, bj, bv, mp, mj, state, val,
             cp, cj, cv, cnt)
}

/* ------------------------------------------------------------------ */
/* MSA, complemented mask: first-touch list per row, emitted sorted    */
/* (or re-collected by a scan where the touched span is dense).  The output */
/* size is not known up front, so the loop is resumable: it starts at  */
/* row0 with cnt[2] entries already written and returns the row it     */
/* stopped at -- nrows when done, else the row that needs cnt[3] cells */
/* of capacity (that row is restarted by the next call).               */
/* cnt: [0] flops, [1] inserts, [2] nnz written, [3] capacity needed   */
/* ------------------------------------------------------------------ */
INLINE i64 msa_compl(const int op, i64 row0, i64 nrows, i64 ncols,
                     const i64 *ap, const i64 *aj, const double *av,
                     const i64 *bp, const i64 *bj, const double *bv,
                     const i64 *mp, const i64 *mj,
                     uint8_t *state, double *val, i64 *touched,
                     i64 *cp, i64 *cj, double *cv, i64 cap, i64 *cnt)
{
    i64 nnz = cnt[2], i;
    if (row0 == 0)
        cp[0] = 0;
    for (i = row0; i < nrows; i++) {
        const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
        i64 flops = 0, inserts = 0, lo = ncols, hi = -1;
        if (a0 == a1) {
            cp[i + 1] = nnz;
            continue;
        }
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = MASKED;
        i64 nt = msa_row(op, 1, a0, a1, aj, av, bp, bj, bv, state, val, touched,
                         &flops, &inserts);
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = EMPTY;
        if (nnz + nt > cap) { /* out of room: clean up, ask for more */
            for (i64 t = 0; t < nt; t++) {
                state[touched[t]] = EMPTY;
                val[touched[t]] = 0.0;
            }
            cnt[3] = nnz + nt;
            break;
        }
        for (i64 t = 0; t < nt; t++) {
            lo = touched[t] < lo ? touched[t] : lo;
            hi = touched[t] > hi ? touched[t] : hi;
        }
        /* put the first-touch list in column order: re-collect it from the
         * state bytes of the touched span (eight at a time) when that span is
         * dense enough, else sort it */
        if (hi - lo < SCAN_SPAN * nt) {
            nt = 0;
            for (i64 c = lo; c <= hi; c++) {
                uint64_t word;
                if (c + 8 <= ncols) {
                    memcpy(&word, state + c, 8);
                    if (!word) {
                        c += 7;
                        continue;
                    }
                }
                touched[nt] = c; /* as in msa_apply: store, then advance */
                nt += state[c] != EMPTY;
            }
        } else
            qsort(touched, (size_t)nt, sizeof(i64), cmp_i64);
        for (i64 t = 0; t < nt; t++) {
            const i64 c = touched[t];
            cj[nnz] = c;
            cv[nnz++] = val[c];
            state[c] = EMPTY;
            val[c] = 0.0;
        }
        cnt[0] += flops;
        cnt[1] += inserts;
        cp[i + 1] = nnz;
    }
    cnt[2] = nnz;
    return i;
}

i64 repro_msa_complement(i64 op, i64 row0, i64 nrows, i64 ncols,
                         const i64 *ap, const i64 *aj, const double *av,
                         const i64 *bp, const i64 *bj, const double *bv,
                         const i64 *mp, const i64 *mj,
                         uint8_t *state, double *val, i64 *touched,
                         i64 *cp, i64 *cj, double *cv, i64 cap, i64 *cnt)
{
    DISPATCH(msa_compl, row0, nrows, ncols, ap, aj, av, bp, bj, bv, mp, mj,
             state, val, touched, cp, cj, cv, cap, cnt)
}

/* ------------------------------------------------------------------ */
/* Symbolic row (pattern only): exact output nonzeros per row.         */
/* Plain: set-allowed, erase-on-hit, count.  Complement: first touch.  */
/* ------------------------------------------------------------------ */
i64 repro_symbolic(i64 complement, i64 nrows,
                   const i64 *ap, const i64 *aj,
                   const i64 *bp, const i64 *bj,
                   const i64 *mp, const i64 *mj,
                   uint8_t *state, i64 *touched, i64 *row_nnz)
{
    for (i64 i = 0; i < nrows; i++) {
        const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
        i64 count = 0, nt = 0;
        row_nnz[i] = 0;
        if (a0 == a1 || (!complement && m0 == m1))
            continue;
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = complement ? MASKED : ALLOWED;
        for (i64 j = a0; j < a1; j++) {
            const i64 k = aj[j], b1 = bp[k + 1];
            for (i64 t = bp[k]; t < b1; t++) {
                const i64 c = bj[t];
                if (complement) {
                    if (state[c] == EMPTY) {
                        state[c] = SET;
                        touched[nt++] = c;
                    }
                } else if (state[c] == ALLOWED) {
                    state[c] = EMPTY; /* erase on hit */
                    count++;
                }
            }
        }
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = EMPTY;
        for (i64 t = 0; t < nt; t++)
            state[touched[t]] = EMPTY;
        row_nnz[i] = complement ? nt : count;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Inner: per mask nonzero (i, j), A row i against CSC column j of B.  */
/* The A row is scattered once into a dense position lookup (`where`,  */
/* ncols(A) int32, zero at rest), so each dot product walks only the   */
/* pulled column -- the work the planner prices -- and meets its       */
/* matches in ascending k.  (tp, ti, tv) are the CSC arrays of B.      */
/* cnt: [0] matched products (flops)                                   */
/* ------------------------------------------------------------------ */
INLINE i64 inner_rows(const int op, i64 nrows,
                      const i64 *ap, const i64 *aj, const double *av,
                      const i64 *tp, const i64 *ti, const double *tv,
                      const i64 *mp, const i64 *mj, int32_t *where,
                      i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    i64 nnz = 0, flops = 0;
    cp[0] = 0;
    for (i64 i = 0; i < nrows; i++) {
        const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
        if (a0 == a1 || m0 == m1) {
            cp[i + 1] = nnz;
            continue;
        }
        for (i64 j = a0; j < a1; j++)
            where[aj[j]] = (int32_t)(j - a0 + 1);
        for (i64 m = m0; m < m1; m++) {
            const i64 col = mj[m], t1 = tp[col + 1];
            i64 hits = 0;
            double v = 0.0;
            for (i64 t = tp[col]; t < t1; t++) {
                const int32_t at = where[ti[t]];
                if (at) {
                    v = add(op, v, mul(op, READS_A(op) ? av[a0 + at - 1] : 0.0,
                                       READS_B(op) ? tv[t] : 0.0));
                    hits++;
                }
            }
            if (hits) { /* a mask entry no product reaches emits nothing */
                cj[nnz] = col;
                cv[nnz++] = v;
                flops += hits;
            }
        }
        for (i64 j = a0; j < a1; j++)
            where[aj[j]] = 0;
        cp[i + 1] = nnz;
    }
    cnt[0] += flops;
    return nnz;
}

i64 repro_inner(i64 op, i64 nrows,
                const i64 *ap, const i64 *aj, const double *av,
                const i64 *tp, const i64 *ti, const double *tv,
                const i64 *mp, const i64 *mj, int32_t *where,
                i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    DISPATCH(inner_rows, nrows, ap, aj, av, tp, ti, tv, mp, mj, where,
             cp, cj, cv, cnt)
}
