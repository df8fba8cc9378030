/*
 * The lean pass, compiled: repro.hype.kernel._descend_lane_py in C, and
 * after it phase 2: repro.hype.core.CompiledPlan._collect_answers_py.
 *
 * One lane of the HyPE descent over a DocumentLayout's columns, exactly
 * as the Python reference walks it -- same visits in the same order,
 * same cursor columns, same counters, same countdown to the next
 * deadline checkpoint.  Phase 2 climbs the same candidate chains, probes
 * and fills the same alive_cache under the same keys and returns the
 * same answer ids in the same order.  The Python functions stay the
 * specification and the fallback; tests/test_descent_native.py holds
 * each pair to identical results.
 *
 * What runs here, per element, is the hit path of every table the pass
 * reads: the array('i') transition row, the OptHyPE filter row, the
 * truth-free pop probe and the truth-carrying pop probe (keyed by the
 * predicate bits and the frozen truth set).  Everything else calls the
 * same Python code the reference calls: the tables' miss paths
 * (lookup_trans, fill_filter, fill_pop), the predicates' holds, and the
 * clock once every CHECK_INTERVAL steps.  So the kernel's tables, their
 * locking and their fill-only contract are untouched.  Phase 2 likewise
 * calls plan._alive on every alive_cache miss.
 *
 * Bounds: every index this file derives from data -- a column index
 * into kid_start / kid_ids / kid_labels / the mask-key column, a label
 * id into a row, a cfg or edge id into pops / cfg_mstates /
 * edge_filters, a visit index from finals_seen / visit_parents / a
 * deaths key, a node id into the label column -- is checked before it
 * is read, negatives included, and a failed check raises IndexError.
 * A mangled layout or cursor is an exception, never a wild read.
 *
 * References: anything borrowed from a list or dict is held (INCREF'd)
 * across every call back into Python, since that code may mutate the
 * container.  The frames of the open ancestors live in a C array; each
 * owns its node-id object, its visit-index object and its pending
 * truth set, all released on every exit path.  The GIL is held for the
 * whole pass.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

/* The packed-word layout of repro.hype.kernel (checked by setup()). */
#define FINAL_BIT 1
#define POP_BIT 2
#define CFG_SHIFT 2
#define DEAD 0
#define UNFILLED (-1)

/* Installed by setup(): kernel._expired, kernel._new_row, the clock. */
static PyObject *expired_fn = NULL;
static PyObject *new_row_fn = NULL;
static PyObject *clock_fn = NULL;
static long long check_interval = 2048;

static PyObject *s_kernel, *s_pops, *s_fill_pop, *s_lookup_trans,
    *s_fill_filter, *s_cfg_mstates, *s_cfg_packed, *s_edge_filters,
    *s_deaths, *s_visit_ids, *s_visit_parents, *s_visit_mstates,
    *s_finals_seen, *s_table, *s_labels, *s_rows_for, *s_kid_ids,
    *s_kid_labels, *s_kid_start, *s_columns, *s_expires_at, *s_visited,
    *s_skipped, *s_cans_vertices, *s_stats, *s_afa_states_resolved, *s_get,
    *s_mfa, *s_nfa, *s_finals, *s_alive_cache, *s_alive;

static int
out_of_range(const char *what, long long index)
{
    PyErr_Format(PyExc_IndexError, "lean pass: %s index %lld out of range",
                 what, index);
    return -1;
}

/* ------------------------------------------------------------------ */
/* Columns: a list of ints (a parse), an int32 buffer (a memoryview    */
/* cast over the sidecar, an array('i')), or any other sequence.       */
/* ------------------------------------------------------------------ */
typedef struct {
    const char *name;
    PyObject *obj; /* owned */
    const int *ints;
    Py_ssize_t len;
    Py_buffer view;
    int viewed;
} Column;

static int
column_open(Column *c, PyObject *obj, const char *name)
{
    c->name = name;
    c->obj = obj; /* the reference is the caller's, handed over */
    c->ints = NULL;
    c->viewed = 0;
    if (obj == NULL)
        return -1;
    if (PyList_Check(obj) || !PyObject_CheckBuffer(obj))
        return 0;
    if (PyObject_GetBuffer(obj, &c->view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0) {
        PyErr_Clear();
        return 0; /* read as a generic sequence */
    }
    const char *format = c->view.format;
    if (c->view.ndim == 1 && c->view.itemsize == (Py_ssize_t)sizeof(int) &&
        format != NULL && (strcmp(format, "i") == 0 || strcmp(format, "@i") == 0)) {
        c->viewed = 1;
        c->ints = (const int *)c->view.buf;
        c->len = c->view.shape ? c->view.shape[0] : c->view.len / (Py_ssize_t)sizeof(int);
        return 0;
    }
    PyBuffer_Release(&c->view);
    return 0;
}

static void
column_close(Column *c)
{
    if (c->viewed) {
        PyBuffer_Release(&c->view);
        c->viewed = 0;
    }
    Py_CLEAR(c->obj);
}

static inline int
as_long(PyObject *value, long *out)
{
    /* The common case inline: an exact int of at most one digit. */
#if PY_VERSION_HEX >= 0x030C0000
    if (PyLong_CheckExact(value) && PyUnstable_Long_IsCompact((PyLongObject *)value)) {
        *out = (long)PyUnstable_Long_CompactValue((PyLongObject *)value);
        return 0;
    }
#else
    if (PyLong_CheckExact(value)) {
        Py_ssize_t size = Py_SIZE(value);
        if (size == 0 || size == 1) {
            *out = size ? (long)((PyLongObject *)value)->ob_digit[0] : 0;
            return 0;
        }
    }
#endif
    long x = PyLong_AsLong(value);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

/* The item at ``i`` as a new reference (negatives are out of range). */
static PyObject *
column_item(Column *c, Py_ssize_t i)
{
    if (c->ints) {
        if ((size_t)i >= (size_t)c->len) {
            out_of_range(c->name, i);
            return NULL;
        }
        return PyLong_FromLong(c->ints[i]);
    }
    if (PyList_Check(c->obj)) {
        if ((size_t)i >= (size_t)PyList_GET_SIZE(c->obj)) {
            out_of_range(c->name, i);
            return NULL;
        }
        return Py_NewRef(PyList_GET_ITEM(c->obj, i));
    }
    if (i < 0) {
        out_of_range(c->name, i);
        return NULL;
    }
    return PySequence_GetItem(c->obj, i);
}

static inline int
column_long(Column *c, Py_ssize_t i, long *out)
{
    if (c->ints) {
        if ((size_t)i >= (size_t)c->len)
            return out_of_range(c->name, i);
        *out = c->ints[i];
        return 0;
    }
    if (PyList_Check(c->obj)) {
        if ((size_t)i >= (size_t)PyList_GET_SIZE(c->obj))
            return out_of_range(c->name, i);
        PyObject *item = PyList_GET_ITEM(c->obj, i);
        if (PyLong_CheckExact(item))
            return as_long(item, out);
    }
    PyObject *item = column_item(c, i);
    if (item == NULL)
        return -1;
    int status = as_long(item, out);
    Py_DECREF(item);
    return status;
}

/* A borrowed list item, bounds-checked. */
static inline PyObject *
list_at(PyObject *list, long long i, const char *what)
{
    if ((unsigned long long)i >= (unsigned long long)PyList_GET_SIZE(list)) {
        out_of_range(what, i);
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

/* ------------------------------------------------------------------ */
/* One pass                                                             */
/* ------------------------------------------------------------------ */
typedef struct {
    Py_buffer view; /* holds the array('i') row */
    int *data;
    Py_ssize_t len;
} RowSlot;

typedef struct {
    PyObject *node;  /* owned: the node id */
    PyObject *vidx_obj; /* owned or NULL: the visit index, made on demand */
    PyObject *trues; /* owned or NULL: truths the children reported */
    int *row;
    Py_ssize_t row_len;
    long cfg;
    Py_ssize_t vidx, ki, kend;
    int pflag;
} Frame;

typedef struct {
    PyObject *plan, *kern, *columns, *labels, *rows, *deaths;
    PyObject *pops, *cfg_mstates, *cfg_packed, *filters;
    PyObject *fill_pop, *lookup_trans, *fill_filter;
    PyObject *visit_ids, *visit_parents, *visit_mstates, *finals_seen;
    Column kid_ids, kid_labels, kid_start, mask_keys;
    int indexed;
    RowSlot **slots; /* by cfg id */
    Py_ssize_t nslots;
    Frame *stack;
    Py_ssize_t depth, cap;
} Pass;

static void
frame_clear(Frame *f)
{
    Py_CLEAR(f->node);
    Py_CLEAR(f->vidx_obj);
    Py_CLEAR(f->trues);
}

static PyObject *
frame_vidx(Frame *f)
{
    if (f->vidx_obj == NULL)
        f->vidx_obj = PyLong_FromSsize_t(f->vidx);
    return f->vidx_obj;
}

static void
pass_clear(Pass *p)
{
    for (Py_ssize_t i = 0; i < p->nslots; i++) {
        RowSlot *slot = p->slots[i];
        if (slot != NULL) {
            PyBuffer_Release(&slot->view);
            PyMem_Free(slot);
        }
    }
    PyMem_Free(p->slots);
    for (Py_ssize_t i = 0; i < p->depth; i++)
        frame_clear(&p->stack[i]);
    PyMem_Free(p->stack);
    column_close(&p->kid_ids);
    column_close(&p->kid_labels);
    column_close(&p->kid_start);
    column_close(&p->mask_keys);
    Py_XDECREF(p->kern);
    Py_XDECREF(p->columns);
    Py_XDECREF(p->labels);
    Py_XDECREF(p->rows);
    Py_XDECREF(p->deaths);
    Py_XDECREF(p->pops);
    Py_XDECREF(p->cfg_mstates);
    Py_XDECREF(p->cfg_packed);
    Py_XDECREF(p->filters);
    Py_XDECREF(p->fill_pop);
    Py_XDECREF(p->lookup_trans);
    Py_XDECREF(p->fill_filter);
    Py_XDECREF(p->visit_ids);
    Py_XDECREF(p->visit_parents);
    Py_XDECREF(p->visit_mstates);
    Py_XDECREF(p->finals_seen);
}

/* ``rows.get(cfg)``, else ``rows.setdefault(cfg, <fresh UNFILLED row>)``:
 * a borrowed reference (the dict holds it). */
static PyObject *
row_object(Pass *p, PyObject *key)
{
    PyObject *row = PyDict_GetItemWithError(p->rows, key);
    if (row != NULL || PyErr_Occurred())
        return row;
    Py_ssize_t width = PyObject_Length(p->labels);
    PyObject *count = width < 0 ? NULL : PyLong_FromSsize_t(width);
    PyObject *fresh = count == NULL ? NULL : PyObject_CallOneArg(new_row_fn, count);
    Py_XDECREF(count);
    if (fresh == NULL)
        return NULL;
    row = PyDict_SetDefault(p->rows, key, fresh);
    Py_DECREF(fresh);
    return row;
}

/* The cfg's row of this label table, exported (so it cannot be resized
 * under the pointer) and held for the rest of the pass.  Each slot is
 * its own allocation: an exported Py_buffer never moves. */
static int
row_for(Pass *p, long cfg, Frame *f)
{
    if (cfg < 0)
        return out_of_range("cfg", cfg);
    if (cfg >= p->nslots) {
        Py_ssize_t grown = p->nslots ? p->nslots : 16;
        while (grown <= cfg)
            grown *= 2;
        RowSlot **slots = PyMem_Realloc(p->slots, grown * sizeof(RowSlot *));
        if (slots == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memset(slots + p->nslots, 0, (grown - p->nslots) * sizeof(RowSlot *));
        p->slots = slots;
        p->nslots = grown;
    }
    RowSlot *slot = p->slots[cfg];
    if (slot == NULL) {
        PyObject *key = PyLong_FromLong(cfg);
        if (key == NULL)
            return -1;
        PyObject *row = row_object(p, key);
        Py_DECREF(key);
        if (row == NULL)
            return -1;
        if ((slot = PyMem_Malloc(sizeof(RowSlot))) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        if (PyObject_GetBuffer(row, &slot->view,
                               PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0) {
            PyMem_Free(slot);
            return -1;
        }
        if (slot->view.ndim != 1 || slot->view.itemsize != (Py_ssize_t)sizeof(int) ||
            slot->view.format == NULL || strcmp(slot->view.format, "i") != 0) {
            PyBuffer_Release(&slot->view);
            PyMem_Free(slot);
            PyErr_SetString(PyExc_TypeError,
                            "lean pass: a transition row must be an array('i')");
            return -1;
        }
        slot->data = (int *)slot->view.buf;
        slot->len = slot->view.len / (Py_ssize_t)sizeof(int);
        p->slots[cfg] = slot;
    }
    f->row = slot->data;
    f->row_len = slot->len;
    return 0;
}

/* ``memo.get(key)`` as a new reference, NULL for a miss (no error set)
 * or on error; a stored None is a miss too, as in the reference. */
static PyObject *
memo_get(PyObject *memo, PyObject *key)
{
    PyObject *value;
    if (PyDict_CheckExact(memo)) {
        value = PyDict_GetItemWithError(memo, key);
        Py_XINCREF(value);
    }
    else {
        value = PyObject_CallMethodOneArg(memo, s_get, key);
    }
    if (value == Py_None) {
        Py_DECREF(value);
        return NULL;
    }
    return value;
}

/* The pop of ``cfg`` at ``node``: evaluate the cfg's node-dependent
 * predicates, probe its outcome table on the observed bits (with the
 * frozen truth set when the children reported any), fill on a miss.
 * Returns a new reference to the ``(dead, report, resolved)`` tuple. */
static PyObject *
pop_outcome(Pass *p, long cfg, PyObject *node, PyObject *trues)
{
    PyObject *entry = list_at(p->pops, cfg, "cfg");
    if (entry == NULL)
        return NULL;
    Py_INCREF(entry);
    PyObject *key = NULL, *truths = NULL, *wide = NULL, *outcome = NULL;
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2 ||
        !PyTuple_Check(PyTuple_GET_ITEM(entry, 0))) {
        PyErr_SetString(PyExc_TypeError,
                        "lean pass: a pop table entry must be (preds, outcomes)");
        goto done;
    }
    PyObject *preds = PyTuple_GET_ITEM(entry, 0);
    PyObject *outcomes = PyTuple_GET_ITEM(entry, 1);
    unsigned long long bits = 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(preds); i++) {
        PyObject *pair = PyTuple_GET_ITEM(preds, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "lean pass: a predicate entry must be (bit, holds)");
            goto done;
        }
        PyObject *args[2] = {p->columns, node};
        PyObject *held = PyObject_Vectorcall(PyTuple_GET_ITEM(pair, 1), args, 2, NULL);
        if (held == NULL)
            goto done;
        int truth = PyObject_IsTrue(held);
        Py_DECREF(held);
        if (truth < 0)
            goto done;
        if (!truth)
            continue;
        PyObject *bit = PyTuple_GET_ITEM(pair, 0);
        if (wide == NULL) {
            if (PyLong_CheckExact(bit)) {
                unsigned long long b = PyLong_AsUnsignedLongLong(bit);
                if (!(b == (unsigned long long)-1 && PyErr_Occurred())) {
                    bits |= b;
                    continue;
                }
                PyErr_Clear();
            }
            /* A bit past 64 (or not a plain int): Python ints from here. */
            wide = PyLong_FromUnsignedLongLong(bits);
            if (wide == NULL)
                goto done;
        }
        PyObject *merged = PyNumber_Or(wide, bit);
        Py_SETREF(wide, merged);
        if (wide == NULL)
            goto done;
    }
    key = wide != NULL ? Py_NewRef(wide) : PyLong_FromUnsignedLongLong(bits);
    if (key == NULL)
        goto done;
    if (trues != NULL) {
        truths = PyFrozenSet_New(trues);
        if (truths == NULL)
            goto done;
        Py_SETREF(key, PyTuple_Pack(2, key, truths));
        if (key == NULL)
            goto done;
    }
    outcome = memo_get(outcomes, key);
    if (outcome == NULL && PyErr_Occurred())
        goto done;
    if (outcome != NULL && trues != NULL) {
        /* The reference probes ``outcomes.get(...) or fill_pop(...)``. */
        int truth = PyObject_IsTrue(outcome);
        if (truth < 0) {
            Py_CLEAR(outcome);
            goto done;
        }
        if (!truth)
            Py_CLEAR(outcome);
    }
    if (outcome == NULL) {
        PyObject *cfg_obj = PyLong_FromLong(cfg);
        if (cfg_obj == NULL)
            goto done;
        PyObject *args[5] = {p->plan, cfg_obj, p->columns, node, truths};
        outcome = PyObject_Vectorcall(p->fill_pop, args, truths ? 5 : 4, NULL);
        Py_DECREF(cfg_obj);
    }
done:
    Py_XDECREF(wide);
    Py_XDECREF(key);
    Py_XDECREF(truths);
    Py_DECREF(entry);
    return outcome;
}

/* ``dead, report, n = outcome`` (borrowed parts of the tuple). */
static int
unpack_outcome(PyObject *outcome, PyObject **dead, PyObject **report,
               long long *n)
{
    if (!PyTuple_Check(outcome) || PyTuple_GET_SIZE(outcome) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "lean pass: a pop outcome must be (dead, report, resolved)");
        return -1;
    }
    *dead = PyTuple_GET_ITEM(outcome, 0);
    *report = PyTuple_GET_ITEM(outcome, 1);
    *n = PyLong_AsLongLong(PyTuple_GET_ITEM(outcome, 2));
    if (*n == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* ``trues = set(report)`` or ``trues.update(report)``. */
static int
merge_report(PyObject **trues, PyObject *report)
{
    if (*trues == NULL) {
        *trues = PySet_New(report);
        return *trues == NULL ? -1 : 0;
    }
    PyObject *iterator = PyObject_GetIter(report);
    if (iterator == NULL)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(iterator)) != NULL) {
        int status = PySet_Add(*trues, item);
        Py_DECREF(item);
        if (status < 0) {
            Py_DECREF(iterator);
            return -1;
        }
    }
    Py_DECREF(iterator);
    return PyErr_Occurred() ? -1 : 0;
}

/* Apply a pop outcome: record the deaths at visit ``vidx``, count the
 * resolved states, and hand a non-empty report back through ``*pending``
 * (a new reference) for the caller to merge into the parent's truths.
 * Consumes ``outcome``. */
static int
apply_outcome(Pass *p, PyObject *outcome, Py_ssize_t vidx,
              long long *resolved, PyObject **pending)
{
    PyObject *dead, *report;
    long long n;
    int status = -1;
    if (unpack_outcome(outcome, &dead, &report, &n) < 0)
        goto done;
    int truth = PyObject_IsTrue(dead);
    if (truth < 0)
        goto done;
    if (truth) {
        PyObject *key = PyLong_FromSsize_t(vidx);
        if (key == NULL)
            goto done;
        int set = PyObject_SetItem(p->deaths, key, dead);
        Py_DECREF(key);
        if (set < 0)
            goto done;
    }
    *resolved += n;
    truth = PyObject_IsTrue(report);
    if (truth < 0)
        goto done;
    if (truth)
        *pending = Py_NewRef(report);
    status = 0;
done:
    Py_DECREF(outcome);
    return status;
}

static int
set_count(PyObject *obj, PyObject *name, long long value)
{
    PyObject *number = PyLong_FromLongLong(value);
    if (number == NULL)
        return -1;
    int status = PyObject_SetAttr(obj, name, number);
    Py_DECREF(number);
    return status;
}

static int
writeback(PyObject *cursor, Pass *p, Py_ssize_t nvis, long long skipped,
          long long resolved)
{
    if (set_count(cursor, s_visited, nvis) < 0 ||
        set_count(cursor, s_skipped, skipped) < 0)
        return -1;
    long long vertices = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(p->visit_mstates); i++) {
        PyObject *item = PyList_GET_ITEM(p->visit_mstates, i);
        Py_ssize_t size = PyAnySet_Check(item) ? PySet_GET_SIZE(item) : PyObject_Length(item);
        if (size < 0)
            return -1;
        vertices += size;
    }
    if (set_count(cursor, s_cans_vertices, vertices) < 0)
        return -1;
    PyObject *stats = PyObject_GetAttr(cursor, s_stats);
    if (stats == NULL)
        return -1;
    int status = -1;
    PyObject *total = NULL, *sum = NULL;
    PyObject *before = PyObject_GetAttr(stats, s_afa_states_resolved);
    if (before != NULL && (total = PyLong_FromLongLong(resolved)) != NULL &&
        (sum = PyNumber_InPlaceAdd(before, total)) != NULL)
        status = PyObject_SetAttr(stats, s_afa_states_resolved, sum);
    Py_XDECREF(sum);
    Py_XDECREF(total);
    Py_XDECREF(before);
    Py_DECREF(stats);
    return status;
}

static PyObject *
get_list(PyObject *owner, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(owner, name);
    if (value != NULL && !PyList_Check(value)) {
        PyErr_Format(PyExc_TypeError, "lean pass: %U must be a list", name);
        Py_CLEAR(value);
    }
    return value;
}

static int
push(Pass *p, Frame *f)
{
    if (p->depth == p->cap) {
        Py_ssize_t cap = p->cap ? 2 * p->cap : 64;
        Frame *stack = PyMem_Realloc(p->stack, cap * sizeof(Frame));
        if (stack == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        p->stack = stack;
        p->cap = cap;
    }
    p->stack[p->depth++] = *f;
    return 0;
}

/* descend_lane(plan, cursor, layout, mask_keys, node, cfg, deadline, checks)
 * -> checks: the signature and the semantics of _descend_lane_py. */
static PyObject *
descend_lane(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "descend_lane takes 8 arguments");
        return NULL;
    }
    if (expired_fn == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "lean pass used before setup()");
        return NULL;
    }
    PyObject *plan = args[0], *cursor = args[1], *layout = args[2],
             *mask_keys = args[3], *deadline = args[6];
    Pass pass;
    memset(&pass, 0, sizeof pass);
    Pass *p = &pass;
    Frame cur;
    memset(&cur, 0, sizeof cur);
    PyObject *deadline_at = NULL, *table = NULL, *result = NULL;
    long long checks = PyLong_AsLongLong(args[7]);
    if (checks == -1 && PyErr_Occurred())
        return NULL;

    p->plan = plan;
    if ((p->kern = PyObject_GetAttr(plan, s_kernel)) == NULL ||
        (p->pops = get_list(p->kern, s_pops)) == NULL ||
        (p->fill_pop = PyObject_GetAttr(p->kern, s_fill_pop)) == NULL ||
        (p->lookup_trans = PyObject_GetAttr(p->kern, s_lookup_trans)) == NULL ||
        (p->fill_filter = PyObject_GetAttr(p->kern, s_fill_filter)) == NULL ||
        (p->cfg_mstates = get_list(p->kern, s_cfg_mstates)) == NULL ||
        (p->cfg_packed = get_list(p->kern, s_cfg_packed)) == NULL ||
        (p->filters = get_list(p->kern, s_edge_filters)) == NULL ||
        (p->deaths = PyObject_GetAttr(cursor, s_deaths)) == NULL ||
        (p->visit_ids = get_list(cursor, s_visit_ids)) == NULL ||
        (p->visit_parents = get_list(cursor, s_visit_parents)) == NULL ||
        (p->visit_mstates = get_list(cursor, s_visit_mstates)) == NULL ||
        (p->finals_seen = get_list(cursor, s_finals_seen)) == NULL ||
        (table = PyObject_GetAttr(layout, s_table)) == NULL ||
        (p->labels = PyObject_GetAttr(table, s_labels)) == NULL ||
        column_open(&p->kid_ids, PyObject_GetAttr(layout, s_kid_ids), "kid_ids") < 0 ||
        column_open(&p->kid_labels, PyObject_GetAttr(layout, s_kid_labels), "kid_labels") < 0 ||
        column_open(&p->kid_start, PyObject_GetAttr(layout, s_kid_start), "kid_start") < 0 ||
        (p->columns = PyObject_GetAttr(layout, s_columns)) == NULL ||
        (p->rows = PyObject_CallMethodOneArg(table, s_rows_for, plan)) == NULL)
        goto error;
    if (!PyDict_Check(p->rows)) {
        PyErr_SetString(PyExc_TypeError, "lean pass: rows_for() must return a dict");
        goto error;
    }
    p->indexed = mask_keys != Py_None;
    if (p->indexed && column_open(&p->mask_keys, Py_NewRef(mask_keys), "mask_keys") < 0)
        goto error;
    if (deadline != Py_None) {
        deadline_at = PyObject_GetAttr(deadline, s_expires_at);
        if (deadline_at == NULL)
            goto error;
        if (deadline_at == Py_None)
            Py_CLEAR(deadline_at);
    }

    /* The context: visited, recorded, its frame opened. */
    long node, packed, value;
    cur.node = Py_NewRef(args[4]);
    if (as_long(cur.node, &node) < 0 || as_long(args[5], &cur.cfg) < 0)
        goto error;
    PyObject *item = list_at(p->cfg_packed, cur.cfg, "cfg");
    if (item == NULL || as_long(item, &packed) < 0)
        goto error;
    if (PyList_Append(p->visit_ids, cur.node) < 0)
        goto error;
    PyObject *minus_one = PyLong_FromLong(-1);
    int status = minus_one == NULL ? -1 : PyList_Append(p->visit_parents, minus_one);
    Py_XDECREF(minus_one);
    if (status < 0)
        goto error;
    if ((item = list_at(p->cfg_mstates, cur.cfg, "cfg")) == NULL ||
        PyList_Append(p->visit_mstates, item) < 0)
        goto error;
    if (packed & FINAL_BIT) {
        PyObject *zero = PyLong_FromLong(0);
        status = zero == NULL ? -1 : PyList_Append(p->finals_seen, zero);
        Py_XDECREF(zero);
        if (status < 0)
            goto error;
    }
    cur.pflag = (int)(packed & POP_BIT);
    if (row_for(p, cur.cfg, &cur) < 0 ||
        column_long(&p->kid_start, node, &value) < 0)
        goto error;
    cur.ki = value;
    if (column_long(&p->kid_start, (Py_ssize_t)node + 1, &value) < 0)
        goto error;
    cur.kend = value;
    cur.vidx = 0;
    Py_ssize_t nvis = 1;
    long long skipped = 0, resolved = 0;

    for (;;) {
        if (deadline_at != NULL && --checks < 0) {
            checks = check_interval;
            PyObject *now = PyObject_CallNoArgs(clock_fn);
            if (now == NULL)
                goto error;
            int late = PyObject_RichCompareBool(now, deadline_at, Py_GE);
            Py_DECREF(now);
            if (late < 0)
                goto error;
            if (late) {
                PyObject *exc = PyObject_CallOneArg(expired_fn, deadline);
                if (exc != NULL) {
                    PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
                    Py_DECREF(exc);
                }
                goto error;
            }
        }
        if (cur.ki == cur.kend) {
            /* Children done: pop the node, then resume its parent. */
            PyObject *report = NULL;
            if (cur.pflag) {
                PyObject *trues =
                    cur.trues != NULL && PySet_GET_SIZE(cur.trues) ? cur.trues : NULL;
                PyObject *outcome = pop_outcome(p, cur.cfg, cur.node, trues);
                if (outcome == NULL ||
                    apply_outcome(p, outcome, cur.vidx, &resolved, &report) < 0)
                    goto error;
            }
            if (p->depth == 0) {
                Py_XDECREF(report);
                break;
            }
            frame_clear(&cur);
            cur = p->stack[--p->depth];
            if (report != NULL) {
                status = merge_report(&cur.trues, report);
                Py_DECREF(report);
                if (status < 0)
                    goto error;
            }
            continue;
        }
        long lid, child;
        if (column_long(&p->kid_labels, cur.ki, &lid) < 0 ||
            column_long(&p->kid_ids, cur.ki, &child) < 0)
            goto error;
        Py_ssize_t at = cur.ki++;
        if ((unsigned long)lid >= (unsigned long)cur.row_len) {
            out_of_range("label", lid);
            goto error;
        }
        packed = cur.row[lid];
        if (packed == UNFILLED) {
            PyObject *label = PySequence_GetItem(p->labels, lid);
            PyObject *cfg_obj = label ? PyLong_FromLong(cur.cfg) : NULL;
            PyObject *word = NULL;
            if (cfg_obj != NULL) {
                PyObject *call[3] = {plan, cfg_obj, label};
                word = PyObject_Vectorcall(p->lookup_trans, call, 3, NULL);
            }
            Py_XDECREF(cfg_obj);
            Py_XDECREF(label);
            if (word == NULL)
                goto error;
            status = as_long(word, &packed);
            Py_DECREF(word);
            if (status < 0)
                goto error;
            if (packed < INT_MIN || packed > INT_MAX) {
                PyErr_SetString(PyExc_OverflowError,
                                "lean pass: a transition word does not fit a row");
                goto error;
            }
            cur.row[lid] = (int)packed;
        }
        if (p->indexed && packed) {
            long eid = packed >> 1;
            PyObject *mask_key = column_item(&p->mask_keys, child);
            if (mask_key == NULL)
                goto error;
            PyObject *row = list_at(p->filters, eid, "edge");
            PyObject *hit = NULL;
            if (row != NULL) {
                if (PyDict_CheckExact(row))
                    hit = PyDict_GetItemWithError(row, mask_key);
                else
                    PyErr_SetString(PyExc_TypeError,
                                    "lean pass: a filter row must be a dict");
            }
            if (PyErr_Occurred() || (hit != NULL && as_long(hit, &packed) < 0)) {
                Py_DECREF(mask_key);
                goto error;
            }
            if (hit == NULL || packed == UNFILLED) {
                PyObject *eid_obj = PyLong_FromLong(eid);
                PyObject *word = NULL;
                if (eid_obj != NULL) {
                    PyObject *call[3] = {plan, eid_obj, mask_key};
                    word = PyObject_Vectorcall(p->fill_filter, call, 3, NULL);
                    Py_DECREF(eid_obj);
                }
                status = word == NULL ? -1 : as_long(word, &packed);
                Py_XDECREF(word);
                if (status < 0) {
                    Py_DECREF(mask_key);
                    goto error;
                }
            }
            Py_DECREF(mask_key);
        }
        if (packed == DEAD) {
            skipped++;
            continue;
        }
        long cfg2 = packed >> CFG_SHIFT, ki2, kend2;
        if (column_long(&p->kid_start, child, &ki2) < 0 ||
            column_long(&p->kid_start, (Py_ssize_t)child + 1, &kend2) < 0)
            goto error;
        PyObject *child_obj = column_item(&p->kid_ids, at);
        if (child_obj == NULL)
            goto error;
        PyObject *parent = frame_vidx(&cur);
        if (parent == NULL || PyList_Append(p->visit_ids, child_obj) < 0 ||
            PyList_Append(p->visit_parents, parent) < 0 ||
            (item = list_at(p->cfg_mstates, cfg2, "cfg")) == NULL ||
            PyList_Append(p->visit_mstates, item) < 0) {
            Py_DECREF(child_obj);
            goto error;
        }
        if (packed & FINAL_BIT) {
            PyObject *index = PyLong_FromSsize_t(nvis);
            status = index == NULL ? -1 : PyList_Append(p->finals_seen, index);
            Py_XDECREF(index);
            if (status < 0) {
                Py_DECREF(child_obj);
                goto error;
            }
        }
        if (ki2 == kend2) {
            /* Childless: no child can report a truth, so the pop is the
             * table probe, applied to the node still in hand. */
            PyObject *report = NULL;
            status = 0;
            if (packed & POP_BIT) {
                PyObject *outcome = pop_outcome(p, cfg2, child_obj, NULL);
                status = outcome == NULL ? -1
                    : apply_outcome(p, outcome, nvis, &resolved, &report);
                if (status == 0 && report != NULL)
                    status = merge_report(&cur.trues, report);
                Py_XDECREF(report);
            }
            Py_DECREF(child_obj);
            if (status < 0)
                goto error;
            nvis++;
            continue;
        }
        if (push(p, &cur) < 0) {
            Py_DECREF(child_obj);
            goto error;
        }
        cur.node = child_obj;
        cur.vidx_obj = NULL;
        cur.trues = NULL;
        cur.vidx = nvis++;
        cur.cfg = cfg2;
        cur.pflag = (int)(packed & POP_BIT);
        cur.ki = ki2;
        cur.kend = kend2;
        if (row_for(p, cfg2, &cur) < 0)
            goto error;
    }
    /* Writeback: a lane examines every element child of every node it
     * visits, so ``visited`` is the length of its visit columns and
     * ``skipped`` the prunes counted on the way. */
    if (writeback(cursor, p, nvis, skipped, resolved) == 0)
        result = PyLong_FromLongLong(checks);
error:
    frame_clear(&cur);
    pass_clear(p);
    Py_XDECREF(table);
    Py_XDECREF(deadline_at);
    return result;
}

/* ------------------------------------------------------------------ */
/* Phase 2                                                              */
/* ------------------------------------------------------------------ */

/* ``seq[i]`` as a new reference: lists bounds-checked in place, any
 * other sequence through its protocol with negatives refused. */
static PyObject *
item_at(PyObject *seq, long long i, const char *what)
{
    if (PyList_Check(seq)) {
        PyObject *item = list_at(seq, i, what);
        return item == NULL ? NULL : Py_NewRef(item);
    }
    if (i < 0 || i > PY_SSIZE_T_MAX) {
        out_of_range(what, i);
        return NULL;
    }
    return PySequence_GetItem(seq, (Py_ssize_t)i);
}

/* ``seq[i]`` read as an int (the item is held while it converts). */
static int
long_at(PyObject *seq, long long i, const char *what, long *out)
{
    PyObject *item = item_at(seq, i, what);
    if (item == NULL)
        return -1;
    int status = as_long(item, out);
    Py_DECREF(item);
    return status;
}

/* A visit index: an int in [0, n). */
static int
visit_at(PyObject *seq, long long i, Py_ssize_t n, Py_ssize_t *out)
{
    long visit;
    if (long_at(seq, i, "visit", &visit) < 0)
        return -1;
    if ((unsigned long long)visit >= (unsigned long long)n)
        return out_of_range("visit", visit);
    *out = visit;
    return 0;
}

/* ``alive & finals`` is non-empty, tested by membership of each final
 * state (``finals`` is a tuple of them); generically for a non-set. */
static int
has_final(PyObject *alive, PyObject *finals)
{
    if (!PyAnySet_Check(alive)) {
        PyObject *both = PyNumber_And(alive, finals);
        if (both == NULL)
            return -1;
        int truth = PyObject_IsTrue(both);
        Py_DECREF(both);
        return truth;
    }
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(finals); k++) {
        int found = PySet_Contains(alive, PyTuple_GET_ITEM(finals, k));
        if (found != 0)
            return found;
    }
    return 0;
}

/* ``alive(i)`` when it is not phase 1's set: ``alive_cache[(parent_alive,
 * label[visit_ids[i]], phase1, dead)]``, computed by ``plan._alive`` on a
 * miss.  Returns a new reference. */
static PyObject *
alive_of(PyObject *plan, PyObject *cache, PyObject **alive_fn,
         PyObject *visit_ids, PyObject *label, Py_ssize_t i,
         PyObject *parent_alive, PyObject *phase1, PyObject *dead)
{
    long node;
    if (long_at(visit_ids, i, "visit", &node) < 0)
        return NULL;
    PyObject *name = item_at(label, node, "node");
    if (name == NULL)
        return NULL;
    PyObject *key = PyTuple_Pack(4, parent_alive ? parent_alive : Py_None, name,
                                 phase1, dead ? dead : Py_None);
    Py_DECREF(name);
    if (key == NULL)
        return NULL;
    PyObject *current = memo_get(cache, key);
    if (current == NULL && !PyErr_Occurred()) {
        if (*alive_fn == NULL)
            *alive_fn = PyObject_GetAttr(plan, s_alive);
        if (*alive_fn != NULL) {
            PyObject **parts = ((PyTupleObject *)key)->ob_item;
            current = PyObject_Vectorcall(*alive_fn, parts, 4, NULL);
        }
        if (current != NULL && PyObject_SetItem(cache, key, current) < 0)
            Py_CLEAR(current);
    }
    Py_DECREF(key);
    return current;
}

/* collect_answers(plan, visit_ids, visit_parents, visit_mstates, deaths,
 * finals_seen, label) -> answer node ids: the signature and semantics of
 * CompiledPlan._collect_answers_py.
 *
 * Per call, ``alive`` is a C array of owned references indexed by visit
 * (NULL: not known yet) and ``deaths`` is flattened once into another.
 * A parent visit precedes its child, so every step of a climb must go to
 * a smaller index (or -1 above the root): a mangled ``visit_parents``
 * cannot loop. */
static PyObject *
collect_answers(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "collect_answers takes 7 arguments");
        return NULL;
    }
    PyObject *plan = args[0], *visit_ids = args[1], *visit_parents = args[2],
             *visit_mstates = args[3], *deaths = args[4], *finals_seen = args[5],
             *label = args[6];
    if (!PyList_Check(visit_ids) || !PyList_Check(finals_seen)) {
        PyErr_SetString(PyExc_TypeError,
                        "collect_answers: visit_ids and finals_seen must be lists");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(visit_ids);
    PyObject *answers = PyList_New(0);
    if (answers == NULL)
        return NULL;
    int any = PyObject_IsTrue(deaths);
    if (any < 0)
        goto fail;
    if (!any) {
        /* No gate failed: the candidates are the answers. */
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(finals_seen); k++) {
            Py_ssize_t visit;
            if (visit_at(finals_seen, k, n, &visit) < 0)
                goto fail;
            PyObject *node = list_at(visit_ids, visit, "visit");
            if (node == NULL || PyList_Append(answers, node) < 0)
                goto fail;
        }
        return answers;
    }
    if (!PyList_Check(visit_parents) || !PyList_Check(visit_mstates) ||
        !PyDict_Check(deaths)) {
        PyErr_SetString(PyExc_TypeError,
                        "collect_answers: visit columns must be lists, deaths a dict");
        goto fail;
    }

    int status = -1;
    PyObject *cache = NULL, *finals = NULL, *alive_fn = NULL;
    Py_ssize_t size = n ? n : 1, ndead = PyDict_GET_SIZE(deaths), touched = 0;
    PyObject **alive = PyMem_Calloc(size, sizeof(PyObject *));
    PyObject **dead = PyMem_Calloc(size, sizeof(PyObject *));
    Py_ssize_t *chain = PyMem_Malloc(size * sizeof(Py_ssize_t));
    Py_ssize_t *known = PyMem_Malloc(size * sizeof(Py_ssize_t));
    Py_ssize_t *dead_at = PyMem_Malloc((ndead ? ndead : 1) * sizeof(Py_ssize_t));
    Py_ssize_t flattened = 0;
    if (alive == NULL || dead == NULL || chain == NULL || known == NULL ||
        dead_at == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Flatten deaths: every key a visit index in range. */
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(deaths, &pos, &key, &value)) {
        if (!PyLong_CheckExact(key)) {
            PyErr_SetString(PyExc_TypeError, "collect_answers: a deaths key must be an int");
            goto done;
        }
        long visit;
        if (as_long(key, &visit) < 0)
            goto done;
        if ((unsigned long long)visit >= (unsigned long long)n) {
            out_of_range("visit", visit);
            goto done;
        }
        if (value != Py_None) {
            dead[visit] = Py_NewRef(value);
            dead_at[flattened++] = visit;
        }
    }
    PyObject *mfa = PyObject_GetAttr(plan, s_mfa);
    PyObject *nfa = mfa ? PyObject_GetAttr(mfa, s_nfa) : NULL;
    PyObject *finals_set = nfa ? PyObject_GetAttr(nfa, s_finals) : NULL;
    Py_XDECREF(mfa);
    Py_XDECREF(nfa);
    if (finals_set == NULL)
        goto done;
    finals = PySequence_Tuple(finals_set);
    Py_DECREF(finals_set);
    if (finals == NULL || (cache = PyObject_GetAttr(plan, s_alive_cache)) == NULL)
        goto done;

    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(finals_seen); k++) {
        Py_ssize_t candidate, i, depth = 0;
        if (visit_at(finals_seen, k, n, &candidate) < 0)
            goto done;
        /* Climb to the nearest visit whose alive set is known. */
        for (i = candidate; i != -1 && alive[i] == NULL;) {
            long parent;
            chain[depth++] = i;
            if (long_at(visit_parents, i, "visit", &parent) < 0)
                goto done;
            if (parent < -1 || parent >= i) {
                out_of_range("parent visit", parent);
                goto done;
            }
            i = parent;
        }
        /* Come back down, filling the chain. */
        while (depth > 0) {
            Py_ssize_t parent = i;
            i = chain[--depth];
            PyObject *phase1 = item_at(visit_mstates, i, "visit");
            if (phase1 == NULL)
                goto done;
            PyObject *parent_alive = parent == -1 ? NULL : alive[parent];
            int same = 0;
            if (dead[i] == NULL && parent_alive != NULL) {
                /* No divergence above or here: phase 1's set is exact. */
                PyObject *above = list_at(visit_mstates, parent, "visit");
                if (above == NULL) {
                    Py_DECREF(phase1);
                    goto done;
                }
                same = parent_alive == above;
            }
            PyObject *current = same ? Py_NewRef(phase1)
                : alive_of(plan, cache, &alive_fn, visit_ids, label, i,
                           parent_alive, phase1, dead[i]);
            Py_DECREF(phase1);
            if (current == NULL)
                goto done;
            alive[i] = current;
            known[touched++] = i;
        }
        int hit = has_final(alive[candidate], finals);
        if (hit < 0)
            goto done;
        if (hit) {
            PyObject *node = list_at(visit_ids, candidate, "visit");
            if (node == NULL || PyList_Append(answers, node) < 0)
                goto done;
        }
    }
    status = 0;
done:
    for (Py_ssize_t k = 0; k < touched; k++)
        Py_DECREF(alive[known[k]]);
    for (Py_ssize_t k = 0; k < flattened; k++)
        Py_DECREF(dead[dead_at[k]]);
    PyMem_Free(alive);
    PyMem_Free(dead);
    PyMem_Free(chain);
    PyMem_Free(known);
    PyMem_Free(dead_at);
    Py_XDECREF(cache);
    Py_XDECREF(finals);
    Py_XDECREF(alive_fn);
    if (status == 0)
        return answers;
fail:
    Py_DECREF(answers);
    return NULL;
}

/* setup(expired, new_row, clock, check_interval, constants): install the
 * kernel's helpers; ``constants`` is kernel's (FINAL_BIT, POP_BIT,
 * CFG_SHIFT, DEAD, UNFILLED), refused unless it matches this file's. */
static PyObject *
setup(PyObject *module, PyObject *args)
{
    PyObject *expired, *new_row, *clock, *constants;
    long long interval;
    if (!PyArg_ParseTuple(args, "OOOLO!", &expired, &new_row, &clock, &interval,
                          &PyTuple_Type, &constants))
        return NULL;
    PyObject *mine = Py_BuildValue("(iiiii)", FINAL_BIT, POP_BIT, CFG_SHIFT, DEAD, UNFILLED);
    if (mine == NULL)
        return NULL;
    int same = PyObject_RichCompareBool(mine, constants, Py_EQ);
    Py_DECREF(mine);
    if (same < 0)
        return NULL;
    if (!same) {
        PyErr_SetString(PyExc_ValueError,
                        "packed-word constants differ from the compiled pass");
        return NULL;
    }
    if (interval < 0) {
        PyErr_SetString(PyExc_ValueError, "check interval must be >= 0");
        return NULL;
    }
    Py_XSETREF(expired_fn, Py_NewRef(expired));
    Py_XSETREF(new_row_fn, Py_NewRef(new_row));
    Py_XSETREF(clock_fn, Py_NewRef(clock));
    check_interval = interval;
    Py_RETURN_NONE;
}

static PyMethodDef lean_methods[] = {
    {"descend_lane", (PyCFunction)(void (*)(void))descend_lane, METH_FASTCALL,
     "descend_lane(plan, cursor, layout, mask_keys, node, cfg, deadline, checks)"
     " -> checks\n\nThe compiled lean pass (see repro.hype.kernel)."},
    {"collect_answers", (PyCFunction)(void (*)(void))collect_answers, METH_FASTCALL,
     "collect_answers(plan, visit_ids, visit_parents, visit_mstates, deaths,"
     " finals_seen, label) -> answer node ids\n\n"
     "Phase 2, compiled (see repro.hype.core)."},
    {"setup", setup, METH_VARARGS,
     "setup(expired, new_row, clock, check_interval, constants)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef lean_module = {
    PyModuleDef_HEAD_INIT, "_lean",
    "The compiled lean pass of repro.hype.kernel and phase 2 of repro.hype.core.",
    -1, lean_methods,
};

PyMODINIT_FUNC
PyInit__lean(void)
{
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL
    INTERN(s_kernel, "kernel");
    INTERN(s_pops, "pops");
    INTERN(s_fill_pop, "fill_pop");
    INTERN(s_lookup_trans, "lookup_trans");
    INTERN(s_fill_filter, "fill_filter");
    INTERN(s_cfg_mstates, "cfg_mstates");
    INTERN(s_cfg_packed, "cfg_packed");
    INTERN(s_edge_filters, "edge_filters");
    INTERN(s_deaths, "deaths");
    INTERN(s_visit_ids, "visit_ids");
    INTERN(s_visit_parents, "visit_parents");
    INTERN(s_visit_mstates, "visit_mstates");
    INTERN(s_finals_seen, "finals_seen");
    INTERN(s_table, "table");
    INTERN(s_labels, "labels");
    INTERN(s_rows_for, "rows_for");
    INTERN(s_kid_ids, "kid_ids");
    INTERN(s_kid_labels, "kid_labels");
    INTERN(s_kid_start, "kid_start");
    INTERN(s_columns, "columns");
    INTERN(s_expires_at, "expires_at");
    INTERN(s_visited, "visited");
    INTERN(s_skipped, "skipped");
    INTERN(s_cans_vertices, "cans_vertices");
    INTERN(s_stats, "stats");
    INTERN(s_afa_states_resolved, "afa_states_resolved");
    INTERN(s_get, "get");
    INTERN(s_mfa, "mfa");
    INTERN(s_nfa, "nfa");
    INTERN(s_finals, "finals");
    INTERN(s_alive_cache, "_alive_cache");
    INTERN(s_alive, "_alive");
#undef INTERN
    return PyModule_Create(&lean_module);
}
