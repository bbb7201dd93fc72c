/* Compiled tally kernels: the integer loops of entmac._kernels.pure, in C.
 *
 * Every loop draws SplitMix64 words (Steele, Lea & Flood, OOPSLA 2014),
 * compares them with integer thresholds and looks results up in small
 * tables, all passed in from the pure backend, so both backends share one
 * source of truth and their tallies match bit for bit. Nothing here knows
 * the physics. A threshold T, a multiple of 2**11 up to 2**64, is passed as
 * t53 = T >> 11: then w < T exactly when (w >> 11) < t53, and T = 2**64
 * fits. The tally loops release the GIL. Every argument is range-checked
 * before a loop starts, so no table index can leave its table.
 *
 * Build with `python -m entmac._kernels.build`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static inline uint64_t next_u64(uint64_t *state)
{
    uint64_t z = *state += 0x9E3779B97F4A7C15ULL;
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

static int t53_arg(PyObject *obj, void *out)  /* an int in 0..2**53 */
{
    if (!u64_arg(obj, out))
        return 0;
    if (*(uint64_t *)out > (1ULL << 53)) {
        PyErr_SetString(PyExc_ValueError, "threshold >> 11 must be <= 2**53");
        return 0;
    }
    return 1;
}

/* Copies a sequence of exactly len ints, each in 0..max, into table. */
static int table_arg(PyObject *obj, Py_ssize_t len, long max, unsigned char *table)
{
    PyObject *seq = PySequence_Fast(obj, "table must be a sequence");
    if (seq == NULL)
        return 0;
    int ok = PySequence_Fast_GET_SIZE(seq) == len;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "table must have %zd entries, got %zd",
                     len, PySequence_Fast_GET_SIZE(seq));
    for (Py_ssize_t i = 0; ok && i < len; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        ok = !(v == -1 && PyErr_Occurred());
        if (ok && (v < 0 || v > max)) {
            PyErr_Format(PyExc_ValueError, "table entry %zd must be in 0..%ld, got %ld",
                         i, max, v);
            ok = 0;
        }
        table[i] = (unsigned char)v;
    }
    Py_DECREF(seq);
    return ok;
}

static int outcome_arg(PyObject *obj, void *out) { return table_arg(obj, 32, 3, out); }
static int ok_arg(PyObject *obj, void *out) { return table_arg(obj, 4, 1, out); }

static PyObject *words(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n;
    uint64_t s;
    if (!PyArg_ParseTuple(args, "O&O&:words", u64_arg, &s, count_arg, &n))
        return NULL;
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *w = PyLong_FromUnsignedLongLong(next_u64(&s));
        if (w == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, w);
    }
    return out;
}

static PyObject *aloha_tally(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t m, n, successes = 0;
    uint64_t t53, s;
    if (!PyArg_ParseTuple(args, "nO&O&O&:aloha_tally", &m, t53_arg, &t53, count_arg, &n,
                          u64_arg, &s))
        return NULL;
    if (m < 1) {
        PyErr_Format(PyExc_ValueError, "m must be >= 1, got %zd", m);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t transmitters = 0;
        for (Py_ssize_t j = 0; j < m; j++)
            transmitters += (next_u64(&s) >> 11) < t53;
        successes += transmitters == 1;
    }
    Py_END_ALLOW_THREADS
    return PyLong_FromSsize_t(successes);
}

static PyObject *hyperdense_tally(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n, counts[4] = {0, 0, 0, 0};
    uint64_t s, c_t53 = 0;
    unsigned char outcome[32];
    PyObject *c_obj;
    if (!PyArg_ParseTuple(args, "O&O&O&O:hyperdense_tally", count_arg, &n, u64_arg, &s,
                          outcome_arg, outcome, &c_obj)
        || (c_obj != Py_None && !t53_arg(c_obj, &c_t53)))
        return NULL;
    int qubit = c_obj != Py_None;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        unsigned index = 0;
        for (int k = 0; k < 4; k++)  /* A1, A2, B1, B2: top bits */
            index = index << 1 | (unsigned)(next_u64(&s) >> 63);
        /* c: A's measurement word against the threshold, or a fair coin's top bit */
        uint64_t w = next_u64(&s);
        index = index << 1 | (unsigned)(qubit ? (w >> 11) >= c_t53 : w >> 63);
        if (qubit)
            next_u64(&s);  /* B's measurement word, which gives c again */
        counts[outcome[index]]++;
    }
    Py_END_ALLOW_THREADS
    return Py_BuildValue("(nnnn)", counts[0], counts[1], counts[2], counts[3]);
}

static PyObject *superdense_tally(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n, successes = 0;
    uint64_t s;
    unsigned char ok[4];
    if (!PyArg_ParseTuple(args, "O&O&O&:superdense_tally", count_arg, &n, u64_arg, &s,
                          ok_arg, ok))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        unsigned a1 = (unsigned)(next_u64(&s) >> 63);
        unsigned a2 = (unsigned)(next_u64(&s) >> 63);
        next_u64(&s);  /* the Bell measurement's uniform */
        successes += ok[a1 << 1 | a2];
    }
    Py_END_ALLOW_THREADS
    return PyLong_FromSsize_t(successes);
}

static PyMethodDef methods[] = {
    {"words", words, METH_VARARGS, "words(seed, n): the first n SplitMix64 words from seed."},
    {"aloha_tally", aloha_tally, METH_VARARGS,
     "aloha_tally(m, t53, n, seed): successes over n slots of m users."},
    {"hyperdense_tally", hyperdense_tally, METH_VARARGS,
     "hyperdense_tally(n, seed, outcome_table, c_t53): (collision, idle, single_alice,\n"
     "single_bob) over n slots; c_t53 is None for a fair-coin c."},
    {"superdense_tally", superdense_tally, METH_VARARGS,
     "superdense_tally(n, seed, ok_table): roundtrip successes over n trials."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_fast",
    .m_doc = "Compiled tally kernels that replay the pure backend's words and tables.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    return PyModule_Create(&module);
}
