/* Compiled tally kernel: the word-program evaluator of entmac._kernels.pure, in C.
 *
 * The module exports one function, histogram. Its one loop runs any word
 * program (thresholds t_0 .. t_{k-1}, weights w_0 .. w_{k-1}, skip s) over n
 * slots of a SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014): a slot
 * reads k words, then draws s more it ignores, and its index is the sum of
 * w_i * [(word_i >> 11) >= t_i]. It returns how many slots had each index.
 * The programs and the tables that fold an index histogram into a tally stay
 * on the Python side, so nothing here knows the physics and both backends
 * share one source of truth. The loop releases the GIL. Every argument is
 * range-checked and every array sized from the program before it starts, so
 * no index can leave the count array.
 *
 * Build with `python -m entmac._kernels.build`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t next_u64(uint64_t *state)
{
    uint64_t z = *state += GOLDEN;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* PyArg_ParseTuple "O&" converters: each returns 0 with an exception set. */
static int count_arg(PyObject *obj, void *out)  /* an int >= 0 */
{
    Py_ssize_t n = PyLong_AsSsize_t(obj);
    if (n == -1 && PyErr_Occurred())
        return 0;
    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "count must be >= 0, got %zd", n);
        return 0;
    }
    *(Py_ssize_t *)out = n;
    return 1;
}

static int u64_arg(PyObject *obj, void *out)  /* an int in 0..2**64-1 */
{
    uint64_t v = PyLong_AsUnsignedLongLong(obj);
    if (v == (uint64_t)-1 && PyErr_Occurred())
        return 0;
    *(uint64_t *)out = v;
    return 1;
}

/* A new array of the ints in the sequence obj, each in 0..max, and their
 * number in *len; the caller frees it. Returns NULL with an exception set. */
static uint64_t *u64_array(PyObject *obj, uint64_t max, const char *name, Py_ssize_t *len)
{
    PyObject *seq = PySequence_Fast(obj, "thresholds and weights must be sequences");
    if (seq == NULL)
        return NULL;
    *len = PySequence_Fast_GET_SIZE(seq);
    uint64_t *out = PyMem_New(uint64_t, *len);
    int ok = out != NULL;
    if (!ok)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; ok && i < *len; i++) {
        ok = u64_arg(PySequence_Fast_GET_ITEM(seq, i), &out[i]);
        if (ok && out[i] > max) {
            PyErr_Format(PyExc_ValueError, "%s %zd must be <= %llu", name, i,
                         (unsigned long long)max);
            ok = 0;
        }
    }
    Py_DECREF(seq);
    if (!ok)
        PyMem_Free(out);
    return ok ? out : NULL;
}

static PyObject *histogram(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n, skip, k, k_weights;
    uint64_t s, *t = NULL, *w = NULL;
    Py_ssize_t *counts = NULL;
    PyObject *threshold_obj, *weight_obj, *out = NULL;
    if (!PyArg_ParseTuple(args, "O&O&OOO&:histogram", count_arg, &n, u64_arg, &s, &threshold_obj,
                          &weight_obj, count_arg, &skip))
        return NULL;
    /* the largest index, sum(weights), stays within this bound, so neither the
       index nor the size of the count array can overflow */
    const uint64_t bound = (uint64_t)PY_SSIZE_T_MAX / sizeof(Py_ssize_t) - 1;
    uint64_t top = 0;
    if ((t = u64_array(threshold_obj, 1ULL << 53, "threshold", &k)) == NULL
        || (w = u64_array(weight_obj, bound, "weight", &k_weights)) == NULL)
        goto done;
    if (k != k_weights || k == 0) {
        PyErr_Format(PyExc_ValueError, "a program needs at least one threshold and one "
                     "weight per threshold, got %zd and %zd", k, k_weights);
        goto done;
    }
    for (Py_ssize_t j = 0; j < k && top <= bound; j++)
        top += w[j];
    if (top > bound) {
        PyErr_SetString(PyExc_OverflowError, "sum(weights) is too large");
        goto done;
    }
    if ((counts = PyMem_Calloc(top + 1, sizeof *counts)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    const uint64_t jump = (uint64_t)skip * GOLDEN;  /* the skipped words, drawn at once */
    for (Py_ssize_t i = 0; i < n; i++) {
        uint64_t index = 0;
        for (Py_ssize_t j = 0; j < k; j++)
            index += w[j] * ((next_u64(&s) >> 11) >= t[j]);
        s += jump;
        counts[index]++;
    }
    Py_END_ALLOW_THREADS
    out = PyList_New((Py_ssize_t)top + 1);
    for (uint64_t i = 0; out != NULL && i <= top; i++) {
        PyObject *count = PyLong_FromSsize_t(counts[i]);
        if (count == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)i, count);
    }
done:
    PyMem_Free(counts);
    PyMem_Free(w);
    PyMem_Free(t);
    return out;
}

static PyMethodDef methods[] = {
    {"histogram", histogram, METH_VARARGS,
     "histogram(n, seed, thresholds, weights, skip): [number of the n slots with index i\n"
     "for each i <= sum(weights)], where a slot reads one word per threshold t, then\n"
     "skip more, and its index is the sum of the weights of the words w with\n"
     "(w >> 11) >= t."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_fast",
    .m_doc = "The compiled word-program evaluator: one function, histogram, that replays\n"
             "the pure backend's word programs.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    return PyModule_Create(&module);
}
