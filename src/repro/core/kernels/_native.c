/* Native bitset kernel primitives on the packed-uint64 layout.
 *
 * Every buffer crossing this module is the library's canonical
 * little-endian packed representation (see repro.core.kernels.base):
 * bit j of a mask lives in word j >> 6 at bit position j & 63, words
 * stored little-endian.  Mask arrays are (k, words) row-major blocks,
 * dataset grids are (l, n, words) row-major blocks, and selections
 * (height subsets, row subsets, candidate sets) arrive as packed word
 * buffers of their own universe.
 *
 * The module never owns a representation: it reads and writes buffers
 * handed over through the buffer protocol (numpy arrays on the Python
 * side), so a shared-memory or memory-mapped grid is operated on in
 * place, zero-copy.  All loads and stores go through memcpy-based
 * helpers — alignment-safe, optimized to single moves by any modern
 * compiler — with byte-swapping on big-endian hosts so the bit<->index
 * correspondence of the little-endian layout is preserved everywhere.
 *
 * Compile-time feature detection:
 *   - popcount: __builtin_popcountll under GCC/Clang, SWAR fallback
 *     otherwise (feature string exposed via features());
 *   - AVX2: the bulk AND loops vectorize under -mavx2 (opt-in through
 *     setup.py's REPRO_NATIVE_AVX2=1); scalar loops otherwise.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#define REPRO_SIMD "avx2"
#else
#define REPRO_SIMD "scalar"
#endif

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_POPCOUNT_IMPL "__builtin_popcountll"
static inline uint64_t
popcount64(uint64_t x)
{
    return (uint64_t)__builtin_popcountll((unsigned long long)x);
}
#else
#define REPRO_POPCOUNT_IMPL "swar"
static inline uint64_t
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & UINT64_C(0x5555555555555555));
    x = (x & UINT64_C(0x3333333333333333)) +
        ((x >> 2) & UINT64_C(0x3333333333333333));
    x = (x + (x >> 4)) & UINT64_C(0x0F0F0F0F0F0F0F0F);
    return (x * UINT64_C(0x0101010101010101)) >> 56;
}
#endif

#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
#define REPRO_BIG_ENDIAN 1
#else
#define REPRO_BIG_ENDIAN 0
#endif

/* Load/store one little-endian packed word at byte offset 8*i. */
static inline uint64_t
load_word(const unsigned char *base, Py_ssize_t i)
{
    uint64_t v;
    memcpy(&v, base + 8 * i, sizeof v);
#if REPRO_BIG_ENDIAN
    v = __builtin_bswap64(v);
#endif
    return v;
}

static inline void
store_word(unsigned char *base, Py_ssize_t i, uint64_t v)
{
#if REPRO_BIG_ENDIAN
    v = __builtin_bswap64(v);
#endif
    memcpy(base + 8 * i, &v, sizeof v);
}

/* Is bit `index` set in the packed selection buffer? */
static inline int
test_bit(const unsigned char *sel, Py_ssize_t index)
{
    return (int)((load_word(sel, index >> 6) >> (index & 63)) & 1);
}

/* dst[0..words) &= src[0..words); returns 1 if dst is non-zero after. */
static inline int
and_into(unsigned char *dst, const unsigned char *src, Py_ssize_t words)
{
    Py_ssize_t i = 0;
    uint64_t any = 0;
#if defined(__AVX2__)
    for (; i + 4 <= words; i += 4) {
        __m256i a = _mm256_loadu_si256((const __m256i *)(dst + 8 * i));
        __m256i b = _mm256_loadu_si256((const __m256i *)(src + 8 * i));
        __m256i r = _mm256_and_si256(a, b);
        _mm256_storeu_si256((__m256i *)(dst + 8 * i), r);
        any |= (uint64_t)!_mm256_testz_si256(r, r);
    }
#endif
    for (; i < words; i++) {
        uint64_t v = load_word(dst, i) & load_word(src, i);
        store_word(dst, i, v);
        any |= v;
    }
    return any != 0;
}

/* Is sub a subset of mask, word-wise ((sub & ~mask) == 0)? */
static inline int
is_subset_words(const unsigned char *sub, const unsigned char *mask,
                Py_ssize_t words)
{
    for (Py_ssize_t i = 0; i < words; i++) {
        if (load_word(sub, i) & ~load_word(mask, i))
            return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Optional-buffer helper: Py_None or a contiguous read buffer.       */
/* ------------------------------------------------------------------ */

static int
get_optional_buffer(PyObject *obj, Py_buffer *view, int *present)
{
    if (obj == Py_None) {
        *present = 0;
        return 0;
    }
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    *present = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* fold_and(masks, n_rows, n_words, select, out) -> bool               */
/*                                                                     */
/* AND of the selected rows into out (pre-sized to n_words words).     */
/* select is None (all rows) or a packed row-index bitmask; the caller  */
/* guarantees at least one row is selected (empty selections short-    */
/* circuit in Python, where the universe width is known).  Returns     */
/* True when the fold terminated early on an all-zero accumulator.     */
/* ------------------------------------------------------------------ */

static PyObject *
native_fold_and(PyObject *self, PyObject *args)
{
    Py_buffer masks, out;
    PyObject *select_obj;
    Py_buffer select;
    int has_select = 0;
    Py_ssize_t n_rows, n_words;

    if (!PyArg_ParseTuple(args, "y*nnOw*:fold_and",
                          &masks, &n_rows, &n_words, &select_obj, &out))
        return NULL;
    if (get_optional_buffer(select_obj, &select, &has_select) < 0) {
        PyBuffer_Release(&masks);
        PyBuffer_Release(&out);
        return NULL;
    }

    const unsigned char *rows = (const unsigned char *)masks.buf;
    unsigned char *acc = (unsigned char *)out.buf;
    const unsigned char *sel = has_select ? (const unsigned char *)select.buf
                                          : NULL;
    int started = 0, early = 0;

    for (Py_ssize_t i = 0; i < n_rows && !early; i++) {
        if (sel != NULL && !test_bit(sel, i))
            continue;
        const unsigned char *row = rows + 8 * i * n_words;
        if (!started) {
            memcpy(acc, row, (size_t)(8 * n_words));
            started = 1;
        } else if (!and_into(acc, row, n_words)) {
            early = 1;
        }
    }

    if (early)
        memset(acc, 0, (size_t)(8 * n_words));

    PyBuffer_Release(&masks);
    PyBuffer_Release(&out);
    if (has_select)
        PyBuffer_Release(&select);
    if (early)
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

/* ------------------------------------------------------------------ */
/* popcounts(masks, n_rows, n_words) -> list[int]                      */
/* ------------------------------------------------------------------ */

static PyObject *
native_popcounts(PyObject *self, PyObject *args)
{
    Py_buffer masks;
    Py_ssize_t n_rows, n_words;

    if (!PyArg_ParseTuple(args, "y*nn:popcounts", &masks, &n_rows, &n_words))
        return NULL;

    PyObject *result = PyList_New(n_rows);
    if (result == NULL) {
        PyBuffer_Release(&masks);
        return NULL;
    }
    const unsigned char *rows = (const unsigned char *)masks.buf;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        const unsigned char *row = rows + 8 * i * n_words;
        uint64_t total = 0;
        for (Py_ssize_t w = 0; w < n_words; w++)
            total += popcount64(load_word(row, w));
        PyObject *value = PyLong_FromUnsignedLongLong(total);
        if (value == NULL) {
            Py_DECREF(result);
            PyBuffer_Release(&masks);
            return NULL;
        }
        PyList_SET_ITEM(result, i, value);
    }
    PyBuffer_Release(&masks);
    return result;
}

/* ------------------------------------------------------------------ */
/* supersets_of(masks, n_rows, n_words, sub, out) -> None              */
/*                                                                     */
/* out is a packed bitmask over row indices (words_per_row(n_rows)     */
/* words) receiving a set bit for every row containing sub.            */
/* ------------------------------------------------------------------ */

static PyObject *
native_supersets_of(PyObject *self, PyObject *args)
{
    Py_buffer masks, sub, out;
    Py_ssize_t n_rows, n_words;

    if (!PyArg_ParseTuple(args, "y*nny*w*:supersets_of",
                          &masks, &n_rows, &n_words, &sub, &out))
        return NULL;

    const unsigned char *rows = (const unsigned char *)masks.buf;
    const unsigned char *sub_words = (const unsigned char *)sub.buf;
    unsigned char *result = (unsigned char *)out.buf;

    memset(result, 0, (size_t)out.len);
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        const unsigned char *row = rows + 8 * i * n_words;
        if (is_subset_words(sub_words, row, n_words)) {
            Py_ssize_t w = i >> 6;
            store_word(result, w,
                       load_word(result, w) | (UINT64_C(1) << (i & 63)));
        }
    }

    PyBuffer_Release(&masks);
    PyBuffer_Release(&sub);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* and_many(a, b, out, total_words) -> None                            */
/* Elementwise AND over two equal-shape flat word blocks.              */
/* ------------------------------------------------------------------ */

static PyObject *
native_and_many(PyObject *self, PyObject *args)
{
    Py_buffer a, b, out;
    Py_ssize_t total;

    if (!PyArg_ParseTuple(args, "y*y*w*n:and_many", &a, &b, &out, &total))
        return NULL;

    const unsigned char *pa = (const unsigned char *)a.buf;
    const unsigned char *pb = (const unsigned char *)b.buf;
    unsigned char *po = (unsigned char *)out.buf;
    Py_ssize_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= total; i += 4) {
        __m256i va = _mm256_loadu_si256((const __m256i *)(pa + 8 * i));
        __m256i vb = _mm256_loadu_si256((const __m256i *)(pb + 8 * i));
        _mm256_storeu_si256((__m256i *)(po + 8 * i),
                            _mm256_and_si256(va, vb));
    }
#endif
    for (; i < total; i++)
        store_word(po, i, load_word(pa, i) & load_word(pb, i));

    PyBuffer_Release(&a);
    PyBuffer_Release(&b);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* grid_fold_rows(grid, l, n, words, heights, out) -> None             */
/*                                                                     */
/* Per-row AND over the selected heights: out is an (n, words) block.  */
/* The caller guarantees at least one height is selected.              */
/* ------------------------------------------------------------------ */

static PyObject *
native_grid_fold_rows(PyObject *self, PyObject *args)
{
    Py_buffer grid, heights, out;
    Py_ssize_t l, n, words;

    if (!PyArg_ParseTuple(args, "y*nnny*w*:grid_fold_rows",
                          &grid, &l, &n, &words, &heights, &out))
        return NULL;

    const unsigned char *base = (const unsigned char *)grid.buf;
    const unsigned char *sel = (const unsigned char *)heights.buf;
    unsigned char *acc = (unsigned char *)out.buf;
    Py_ssize_t slice_words = n * words;
    int started = 0;

    for (Py_ssize_t k = 0; k < l; k++) {
        if (!test_bit(sel, k))
            continue;
        const unsigned char *slice = base + 8 * k * slice_words;
        if (!started) {
            memcpy(acc, slice, (size_t)(8 * slice_words));
            started = 1;
        } else {
            Py_ssize_t i = 0;
#if defined(__AVX2__)
            for (; i + 4 <= slice_words; i += 4) {
                __m256i a = _mm256_loadu_si256((const __m256i *)(acc + 8 * i));
                __m256i b = _mm256_loadu_si256(
                    (const __m256i *)(slice + 8 * i));
                _mm256_storeu_si256((__m256i *)(acc + 8 * i),
                                    _mm256_and_si256(a, b));
            }
#endif
            for (; i < slice_words; i++)
                store_word(acc, i, load_word(acc, i) & load_word(slice, i));
        }
    }

    PyBuffer_Release(&grid);
    PyBuffer_Release(&heights);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* grid_fold_and(grid, l, n, words, heights, rows, out) -> None        */
/*                                                                     */
/* AND of grid[k][i] over selected (k, i) pairs into out (words        */
/* words).  Caller guarantees both selections are non-empty; out is   */
/* pre-filled with the full-universe mask and shrinks monotonically,   */
/* with an early exit once it reaches all-zero.                        */
/* ------------------------------------------------------------------ */

static PyObject *
native_grid_fold_and(PyObject *self, PyObject *args)
{
    Py_buffer grid, heights, rows, out;
    Py_ssize_t l, n, words;

    if (!PyArg_ParseTuple(args, "y*nnny*y*w*:grid_fold_and",
                          &grid, &l, &n, &words, &heights, &rows, &out))
        return NULL;

    const unsigned char *base = (const unsigned char *)grid.buf;
    const unsigned char *hsel = (const unsigned char *)heights.buf;
    const unsigned char *rsel = (const unsigned char *)rows.buf;
    unsigned char *acc = (unsigned char *)out.buf;
    int live = 1;

    for (Py_ssize_t k = 0; k < l && live; k++) {
        if (!test_bit(hsel, k))
            continue;
        const unsigned char *slice = base + 8 * k * n * words;
        for (Py_ssize_t i = 0; i < n && live; i++) {
            if (!test_bit(rsel, i))
                continue;
            if (!and_into(acc, slice + 8 * i * words, words))
                live = 0;
        }
    }
    if (!live)
        memset(acc, 0, (size_t)(8 * words));

    PyBuffer_Release(&grid);
    PyBuffer_Release(&heights);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* grid_supporting_heights(grid, l, n, words, rows, columns,           */
/*                         candidates, out) -> None                    */
/*                                                                     */
/* Sets bit k of out for every candidate height whose slice contains   */
/* `columns` on every selected row.  candidates may be None (= all).   */
/* Caller guarantees the row selection is non-empty.                   */
/* ------------------------------------------------------------------ */

static PyObject *
native_grid_supporting_heights(PyObject *self, PyObject *args)
{
    Py_buffer grid, rows, columns, out;
    PyObject *cand_obj;
    Py_buffer cand;
    int has_cand = 0;
    Py_ssize_t l, n, words;

    if (!PyArg_ParseTuple(args, "y*nnny*y*Ow*:grid_supporting_heights",
                          &grid, &l, &n, &words, &rows, &columns,
                          &cand_obj, &out))
        return NULL;
    if (get_optional_buffer(cand_obj, &cand, &has_cand) < 0) {
        PyBuffer_Release(&grid);
        PyBuffer_Release(&rows);
        PyBuffer_Release(&columns);
        PyBuffer_Release(&out);
        return NULL;
    }

    const unsigned char *base = (const unsigned char *)grid.buf;
    const unsigned char *rsel = (const unsigned char *)rows.buf;
    const unsigned char *cols = (const unsigned char *)columns.buf;
    const unsigned char *csel = has_cand ? (const unsigned char *)cand.buf
                                         : NULL;
    unsigned char *result = (unsigned char *)out.buf;

    memset(result, 0, (size_t)out.len);
    for (Py_ssize_t k = 0; k < l; k++) {
        if (csel != NULL && !test_bit(csel, k))
            continue;
        const unsigned char *slice = base + 8 * k * n * words;
        int ok = 1;
        for (Py_ssize_t i = 0; i < n && ok; i++) {
            if (!test_bit(rsel, i))
                continue;
            ok = is_subset_words(cols, slice + 8 * i * words, words);
        }
        if (ok) {
            Py_ssize_t w = k >> 6;
            store_word(result, w,
                       load_word(result, w) | (UINT64_C(1) << (k & 63)));
        }
    }

    PyBuffer_Release(&grid);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&columns);
    PyBuffer_Release(&out);
    if (has_cand)
        PyBuffer_Release(&cand);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* grid_supporting_rows(grid, l, n, words, heights, columns,           */
/*                      candidates, out) -> None                       */
/* ------------------------------------------------------------------ */

static PyObject *
native_grid_supporting_rows(PyObject *self, PyObject *args)
{
    Py_buffer grid, heights, columns, out;
    PyObject *cand_obj;
    Py_buffer cand;
    int has_cand = 0;
    Py_ssize_t l, n, words;

    if (!PyArg_ParseTuple(args, "y*nnny*y*Ow*:grid_supporting_rows",
                          &grid, &l, &n, &words, &heights, &columns,
                          &cand_obj, &out))
        return NULL;
    if (get_optional_buffer(cand_obj, &cand, &has_cand) < 0) {
        PyBuffer_Release(&grid);
        PyBuffer_Release(&heights);
        PyBuffer_Release(&columns);
        PyBuffer_Release(&out);
        return NULL;
    }

    const unsigned char *base = (const unsigned char *)grid.buf;
    const unsigned char *hsel = (const unsigned char *)heights.buf;
    const unsigned char *cols = (const unsigned char *)columns.buf;
    const unsigned char *csel = has_cand ? (const unsigned char *)cand.buf
                                         : NULL;
    unsigned char *result = (unsigned char *)out.buf;

    memset(result, 0, (size_t)out.len);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (csel != NULL && !test_bit(csel, i))
            continue;
        int ok = 1;
        for (Py_ssize_t k = 0; k < l && ok; k++) {
            if (!test_bit(hsel, k))
                continue;
            ok = is_subset_words(
                cols, base + 8 * (k * n + i) * words, words);
        }
        if (ok) {
            Py_ssize_t w = i >> 6;
            store_word(result, w,
                       load_word(result, w) | (UINT64_C(1) << (i & 63)));
        }
    }

    PyBuffer_Release(&grid);
    PyBuffer_Release(&heights);
    PyBuffer_Release(&columns);
    PyBuffer_Release(&out);
    if (has_cand)
        PyBuffer_Release(&cand);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* features() -> dict                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
native_features(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:s, s:s, s:i}",
        "popcount", REPRO_POPCOUNT_IMPL,
        "simd", REPRO_SIMD,
        "big_endian", REPRO_BIG_ENDIAN);
}

static PyMethodDef native_methods[] = {
    {"fold_and", native_fold_and, METH_VARARGS,
     "AND-fold selected rows of a packed mask array into out."},
    {"popcounts", native_popcounts, METH_VARARGS,
     "Per-row popcounts of a packed mask array."},
    {"supersets_of", native_supersets_of, METH_VARARGS,
     "Row-index bitmask of rows containing a given mask."},
    {"and_many", native_and_many, METH_VARARGS,
     "Elementwise AND of two flat word blocks into out."},
    {"grid_fold_rows", native_grid_fold_rows, METH_VARARGS,
     "Per-row AND over selected heights of an (l, n, words) grid."},
    {"grid_fold_and", native_grid_fold_and, METH_VARARGS,
     "AND over a (heights x rows) sub-grid with early zero exit."},
    {"grid_supporting_heights", native_grid_supporting_heights, METH_VARARGS,
     "Heights whose slices contain the columns on every selected row."},
    {"grid_supporting_rows", native_grid_supporting_rows, METH_VARARGS,
     "Rows containing the columns on every selected height."},
    {"features", native_features, METH_NOARGS,
     "Compile-time feature flags (popcount impl, SIMD, endianness)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core.kernels._native",
    "C primitives for the packed-uint64 native bitset kernel.",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
