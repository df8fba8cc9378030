/*
 * The lean pass, compiled: repro.hype.kernel._descend_lane_py in C, and
 * after it phase 2 (repro.hype.core.CompiledPlan._collect_answers_py)
 * and the cold path (kernel._close_py and DenseKernel.fill_pop).
 *
 * One lane of the HyPE descent over a DocumentLayout's columns, exactly
 * as the Python reference walks it -- same visits in the same order,
 * same cursor columns, same counters, same countdown to the next
 * deadline checkpoint.  Phase 2 climbs the same candidate chains, probes
 * and fills the same alive_cache under the same keys and returns the
 * same answer ids in the same order.  The Python functions stay the
 * specification and the fallback; tests/test_descent_native.py and
 * tests/test_cold_native.py hold each pair to identical results.
 *
 * What runs here, per element, is the hit path of every table the pass
 * reads: the array('i') transition row, the OptHyPE filter row, the
 * truth-free pop probe and the truth-carrying pop probe (keyed by the
 * predicate bits and the frozen truth set).  A pop miss is filled here
 * too.  Everything else calls the same Python code the reference calls:
 * the transition and filter misses (lookup_trans, fill_filter), the
 * predicates' holds, and the clock once every CHECK_INTERVAL steps.  So
 * the kernel's tables, their locking and their fill-only contract are
 * untouched.  Phase 2 likewise calls plan._alive on every alive_cache
 * miss.
 *
 * Order is by state id; contents decide.  Wherever the reference turns a
 * state set into something ordered -- a watch tuple, predicate bits, the
 * resolved values, a dead list -- it walks the set in ascending state
 * id, and so does this file, over bit rows.  No table depends on how a
 * set object was built.
 *
 * Bounds: every index this file derives from data -- a column index
 * into kid_start / kid_ids / kid_labels / the mask-key column, a label
 * id into a row, a cfg or edge id into pops / cfg_mstates /
 * edge_filters, a visit index from finals_seen / visit_parents / a
 * deaths key, a node id into the label column, a state id read out of a
 * set -- is checked before it is read, negatives included, and a failed
 * check raises IndexError.  A mangled layout, cursor or automaton is an
 * exception, never a wild read.
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
/* Columns: every layout and mask column is a list of ints (the scan's */
/* or the index's); anything else is refused by name.                 */
/* ------------------------------------------------------------------ */
typedef struct {
    const char *name;
    PyObject *obj; /* owned: a list */
} Column;

static int
column_open(Column *c, PyObject *obj, const char *name)
{
    c->name = name;
    c->obj = obj; /* the reference is the caller's, handed over */
    if (obj == NULL)
        return -1;
    if (!PyList_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "lean pass: column %s must be a list, not %.200s",
                     name, Py_TYPE(obj)->tp_name);
        return -1;
    }
    return 0;
}

static void
column_close(Column *c)
{
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

/* The item at ``i`` as a new reference (negatives are out of range). */
static PyObject *
column_item(Column *c, Py_ssize_t i)
{
    PyObject *item = list_at(c->obj, i, c->name);
    return item == NULL ? NULL : Py_NewRef(item);
}

static inline int
column_long(Column *c, Py_ssize_t i, long *out)
{
    PyObject *item = list_at(c->obj, i, c->name);
    if (item == NULL)
        return -1;
    if (PyLong_CheckExact(item))
        return as_long(item, out);
    /* Held while it converts: __index__ may run arbitrary code. */
    Py_INCREF(item);
    int status = as_long(item, out);
    Py_DECREF(item);
    return status;
}

/* ------------------------------------------------------------------ */
/* The cold path: a plan's flat automaton, its dense closure, pop fills */
/* ------------------------------------------------------------------ */
/*
 * repro.hype.kernel._close_py and DenseKernel.fill_pop (with
 * CompiledPlan._compute_child_sets / _relevant_plan / _resolve /
 * _compute_dead, NFA._compute_closures and AFAPool._analyze under them),
 * compiled.
 *
 * Both build Python objects other code keeps: the plan's interned state
 * sets, its cfgs, its transition and pop tables.  Each of those is a
 * function of set contents: the reference orders every watch tuple,
 * predicate bit and operator group by state id, and interns in a fixed
 * order (base, mstates, relevant).  So the cold path runs on bit rows
 * only.  A child's sets are three rows; the plan's canonical set for a
 * row comes out of a content table mirroring _set_ids (a hit builds
 * nothing), and a set not yet interned is minted from its row, in the
 * reference's interning order.  The closure mints sets and cfgs in the
 * reference's order and leaves the same closure record and tables;
 * tests/test_cold_native.py holds it to that.
 *
 * The flat automaton is built once per plan (and shared by the plans of
 * one MFA): per AFA state its kind, label column, target, ε list,
 * predicate, SCC id (the reference's Tarjan, statement by statement) and
 * relevance closure; per NFA state its λ entry, finality, named columns,
 * step targets by column and ε-closure.  Every id it reads is
 * range-checked when it is built, and every state id read out of a set
 * is checked before it becomes a bit: a mangled automaton or table
 * raises, never reads wild.
 */

enum { K_AND, K_OR, K_NOT, K_TRANS, K_FINAL };

#define WILD_COLUMN (-1)
#define NO_COLUMN (-2)

static PyObject *unbuilt = NULL;     /* kernel._UNBUILT */
static PyObject *other_label = NULL; /* kernel.OTHER_LABEL */
static PyObject *dead_word = NULL;   /* the int DEAD */

static PyObject *s_flat, *s_alphabet, *s_pool, *s_states, *s_kind, *s_eps,
    *s_label, *s_target, *s_pred, *s_trans, *s_ann, *s_closure,
    *s_set_ids, *s_cfg_ids, *s_cfg_relevant, *s_cfg_watch, *s_cfg_m, *s_cfg_r,
    *s_cfg_has_ann, *s_pop_cache, *s_dead_cache, *s_holds, *s_wildcard, *s_and,
    *s_or, *s_not, *s_final;

typedef struct {
    Py_ssize_t n_nfa, n_afa, ncols; /* ncols counts the OTHER column (last) */
    PyObject **columns;             /* owned labels */
    int *ann;                       /* [n_nfa] λ entry, -1 for none */
    unsigned char *final_;          /* [n_nfa] */
    unsigned char *named;           /* [n_nfa * ncols] */
    unsigned char *kind;            /* [n_afa] */
    int *label, *target, *scc;      /* [n_afa] */
    int *eps_at, *eps;              /* CSR of operator ε lists */
    PyObject **pred;                /* [n_afa] owned, NULL for none */
    int cyclic_not;                 /* AFAPool._analyze would raise */
    /* Contents as bit rows over max(n_nfa, n_afa) ids, ``words`` wide:
     * what the closure computes a child's sets with. */
    Py_ssize_t words;
    unsigned long long *step;  /* [n_nfa][ncols]: step targets by column */
    unsigned long long *clo;   /* [n_nfa]: ε-closure */
    unsigned long long *reach; /* [n_afa]: relevance closure */
} Flat;

#define FLAT_CAPSULE "repro.hype._lean.flat"

static void
flat_free(Flat *f)
{
    if (f == NULL)
        return;
    if (f->columns != NULL)
        for (Py_ssize_t i = 0; i < f->ncols; i++)
            Py_XDECREF(f->columns[i]);
    if (f->pred != NULL)
        for (Py_ssize_t i = 0; i < f->n_afa; i++)
            Py_XDECREF(f->pred[i]);
    PyMem_Free(f->columns);
    PyMem_Free(f->pred);
    PyMem_Free(f->ann);
    PyMem_Free(f->final_);
    PyMem_Free(f->named);
    PyMem_Free(f->kind);
    PyMem_Free(f->label);
    PyMem_Free(f->target);
    PyMem_Free(f->scc);
    PyMem_Free(f->eps_at);
    PyMem_Free(f->eps);
    PyMem_Free(f->step);
    PyMem_Free(f->clo);
    PyMem_Free(f->reach);
    PyMem_Free(f);
}

static void
flat_capsule_free(PyObject *capsule)
{
    flat_free(PyCapsule_GetPointer(capsule, FLAT_CAPSULE));
}

static int
bad_automaton(const char *what)
{
    PyErr_Format(PyExc_ValueError, "cold path: malformed automaton (%s)", what);
    return -1;
}

/* An int in [0, n), or ValueError naming ``what``. */
static int
id_in(PyObject *value, Py_ssize_t n, const char *what, long *out)
{
    if (!PyLong_Check(value) || as_long(value, out) < 0) {
        PyErr_Clear();
        return bad_automaton(what);
    }
    if ((unsigned long)*out >= (unsigned long)n)
        return bad_automaton(what);
    return 0;
}

/* The column of a label: its index in ``columns``, WILD_COLUMN for the
 * wildcard, NO_COLUMN for a label no column carries. */
static int
column_of(Flat *f, PyObject *label)
{
    if (!PyUnicode_Check(label))
        return NO_COLUMN;
    if (PyUnicode_Compare(label, s_wildcard) == 0)
        return WILD_COLUMN;
    Py_ssize_t lo = 0, hi = f->ncols - 1; /* the sorted alphabet */
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        int cmp = PyUnicode_Compare(f->columns[mid], label);
        if (cmp == 0)
            return (int)mid;
        if (cmp < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return NO_COLUMN;
}

/* AFAPool._analyze's SCC ids: the same iterative Tarjan, roots in id
 * order, successors in ε-list order, so the ids are the reference's. */
static int
flat_scc(Flat *f)
{
    Py_ssize_t n = f->n_afa;
    int *index = PyMem_Malloc((n ? n : 1) * sizeof(int));
    int *low = PyMem_Malloc((n ? n : 1) * sizeof(int));
    int *stack = PyMem_Malloc((n ? n : 1) * sizeof(int));
    int *work = PyMem_Malloc((n ? n : 1) * 2 * sizeof(int));
    unsigned char *on = PyMem_Calloc(n ? n : 1, 1);
    int status = -1;
    if (!index || !low || !stack || !work || !on) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        index[i] = -1;
    int counter = 0, depth = 0, top = 0, sccs = 0;
    for (int root = 0; root < n; root++) {
        if (index[root] != -1)
            continue;
        index[root] = low[root] = counter++;
        stack[depth++] = root;
        on[root] = 1;
        work[0] = root;
        work[1] = 0;
        top = 1;
        while (top) {
            int node = work[2 * (top - 1)], ptr = work[2 * (top - 1) + 1];
            int nsucc = f->kind[node] <= K_NOT ? f->eps_at[node + 1] - f->eps_at[node] : 0;
            if (ptr < nsucc) {
                work[2 * (top - 1) + 1] = ptr + 1;
                int succ = f->eps[f->eps_at[node] + ptr];
                if (index[succ] == -1) {
                    index[succ] = low[succ] = counter++;
                    stack[depth++] = succ;
                    on[succ] = 1;
                    work[2 * top] = succ;
                    work[2 * top + 1] = 0;
                    top++;
                }
                else if (on[succ] && index[succ] < low[node])
                    low[node] = index[succ];
                continue;
            }
            top--;
            if (top) {
                int parent = work[2 * (top - 1)];
                if (low[node] < low[parent])
                    low[parent] = low[node];
            }
            if (low[node] == index[node]) {
                int first = depth, member, cyclic = 0, has_not = 0;
                do {
                    member = stack[--first];
                } while (member != node);
                if (depth - first > 1)
                    cyclic = 1;
                for (int k = first; k < depth; k++) {
                    member = stack[k];
                    on[member] = 0;
                    f->scc[member] = sccs;
                    has_not |= f->kind[member] == K_NOT;
                    if (f->kind[member] <= K_NOT)
                        for (int e = f->eps_at[member]; e < f->eps_at[member + 1]; e++)
                            cyclic |= f->eps[e] == member;
                }
                if (cyclic && has_not)
                    f->cyclic_not = 1;
                depth = first;
                sccs++;
            }
        }
    }
    status = 0;
done:
    PyMem_Free(index);
    PyMem_Free(low);
    PyMem_Free(stack);
    PyMem_Free(work);
    PyMem_Free(on);
    return status;
}

#define BIT_GET(words, i) ((words)[(i) >> 6] >> ((i) & 63) & 1)
#define BIT_SET(words, i) ((words)[(i) >> 6] |= 1ULL << ((i) & 63))

/* OR the contents of ``set`` (ints in [0, n)) into ``out``: 1 when they
 * fit, 0 when an element does not (``out`` is then partial), -1 on error. */
static int
bits_of(PyObject *set, Py_ssize_t n, unsigned long long *out)
{
    PyObject *iterator = PyObject_GetIter(set), *item;
    if (iterator == NULL)
        return -1;
    int fits = 1;
    while (fits && (item = PyIter_Next(iterator)) != NULL) {
        long state = -1;
        if (!PyLong_CheckExact(item) || as_long(item, &state) < 0) {
            PyErr_Clear();
            state = -1;
        }
        Py_DECREF(item);
        if ((unsigned long)state >= (unsigned long)n)
            fits = 0;
        else
            BIT_SET(out, state);
    }
    Py_DECREF(iterator);
    return PyErr_Occurred() ? -1 : fits;
}

/* The first member of ``row`` in [from, n), -1 when there is none. */
static inline Py_ssize_t
next_bit(const unsigned long long *row, Py_ssize_t n, Py_ssize_t from)
{
    while (from < n) {
        unsigned long long word = row[from >> 6] >> (from & 63);
        if (word) {
            from += __builtin_ctzll(word);
            return from < n ? from : -1;
        }
        from = (from | 63) + 1;
    }
    return -1;
}

/* Every member of ``row`` below ``n``, ascending. */
#define FOR_EACH_BIT(s, row, n) \
    for (Py_ssize_t s = next_bit(row, n, 0); s >= 0; s = next_bit(row, n, s + 1))

/* ``row`` (``words`` wide) := the contents of ``set``, every member an
 * int in [0, n): else IndexError naming ``what``. */
static int
row_of(PyObject *set, Py_ssize_t n, Py_ssize_t words, const char *what,
       unsigned long long *row)
{
    memset(row, 0, words * sizeof *row);
    int fits = bits_of(set, n, row);
    if (fits == 0)
        PyErr_Format(PyExc_IndexError, "cold path: a set names no %s", what);
    return fits == 1 ? 0 : -1;
}

/* A new frozenset of the members of ``row`` below ``n``.  It is copied
 * out of a set, as the reference's frozenset(set) is: a copy's table is
 * sized to its contents, one filled by adds can be twice as large. */
static PyObject *
set_of(const unsigned long long *row, Py_ssize_t n)
{
    PyObject *members = PySet_New(NULL);
    FOR_EACH_BIT(s, row, n) {
        if (members == NULL)
            break;
        PyObject *number = PyLong_FromSsize_t(s);
        if (number == NULL || PySet_Add(members, number) < 0)
            Py_CLEAR(members);
        Py_XDECREF(number);
    }
    PyObject *set = members ? PyFrozenSet_New(members) : NULL;
    Py_XDECREF(members);
    return set;
}

/* The flat automaton's bit rows: per NFA state its step targets by
 * column (the labelled ones plus the wildcard's, from ``nfa_trans``) and
 * its ε-closure (``closures``), per AFA state its relevance closure (the
 * operator ε-reach). */
static int
flat_bits(Flat *f, PyObject *nfa_trans, PyObject *closures)
{
    Py_ssize_t n = f->n_nfa, m = f->n_afa, w;
    w = f->words = ((n > m ? n : m) + 63) / 64 + 1;
    f->step = PyMem_Calloc((n ? n : 1) * f->ncols * w, sizeof(unsigned long long));
    f->clo = PyMem_Calloc((n ? n : 1) * w, sizeof(unsigned long long));
    f->reach = PyMem_Calloc((m ? m : 1) * w, sizeof(unsigned long long));
    int *stack = PyMem_Malloc((f->eps_at[m] + 1) * sizeof(int));
    unsigned long long *wild = PyMem_Calloc(w, sizeof(unsigned long long));
    int status = -1;
    if (!f->step || !f->clo || !f->reach || !stack || !wild) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t s = 0; s < n; s++) {
        PyObject *labelled = PyList_GET_ITEM(nfa_trans, s), *key, *value;
        unsigned long long *row = f->step + s * f->ncols * w;
        Py_ssize_t pos = 0;
        memset(wild, 0, w * sizeof(unsigned long long));
        while (PyDict_Next(labelled, &pos, &key, &value)) {
            int col = column_of(f, key), fits;
            if (col == NO_COLUMN)
                continue;
            fits = bits_of(value, n, col == WILD_COLUMN ? wild : row + col * w);
            if (fits <= 0) {
                if (fits == 0)
                    bad_automaton("a transition targets no NFA state");
                goto done;
            }
        }
        for (Py_ssize_t col = 0; col < f->ncols; col++)
            for (Py_ssize_t k = 0; k < w; k++)
                row[col * w + k] |= wild[k];
        int fits = bits_of(PyList_GET_ITEM(closures, s), n, f->clo + s * w);
        if (fits <= 0) {
            if (fits == 0)
                bad_automaton("an ε-closure names no NFA state");
            goto done;
        }
    }
    for (Py_ssize_t a = 0; a < m; a++) {
        unsigned long long *reach = f->reach + a * w;
        int top = 0;
        stack[top++] = (int)a;
        while (top > 0) {
            int s = stack[--top];
            if (BIT_GET(reach, s))
                continue;
            BIT_SET(reach, s);
            if (f->kind[s] <= K_NOT)
                for (int e = f->eps_at[s]; e < f->eps_at[s + 1]; e++)
                    if (!BIT_GET(reach, f->eps[e]))
                        stack[top++] = f->eps[e]; /* each edge once */
        }
    }
    status = 0;
done:
    PyMem_Free(stack);
    PyMem_Free(wild);
    return status;
}

static PyObject *
flat_build(PyObject *kern, PyObject *mfa)
{
    Flat *f = PyMem_Calloc(1, sizeof(Flat));
    if (f == NULL)
        return PyErr_NoMemory();
    PyObject *nfa = NULL, *pool = NULL, *states = NULL, *alphabet = NULL,
             *ann = NULL, *finals = NULL, *labels = NULL, *result = NULL,
             *nfa_trans = NULL, *closures = NULL;
    if ((nfa = PyObject_GetAttr(mfa, s_nfa)) == NULL ||
        (pool = PyObject_GetAttr(mfa, s_pool)) == NULL ||
        (states = PyObject_GetAttr(pool, s_states)) == NULL ||
        (nfa_trans = PyObject_GetAttr(nfa, s_trans)) == NULL ||
        (ann = PyObject_GetAttr(nfa, s_ann)) == NULL ||
        (finals = PyObject_GetAttr(nfa, s_finals)) == NULL ||
        (alphabet = PyObject_GetAttr(kern, s_alphabet)) == NULL)
        goto done;
    if (!PyList_Check(states) || !PyList_Check(nfa_trans) || !PyDict_Check(ann)) {
        bad_automaton("states, transitions and λ must be a list, a list and a dict");
        goto done;
    }
    /* The NFA's ε-closures: every caller runs after ``root_cfg`` or
     * ``close``, which computed them. */
    if ((closures = PyObject_GetAttr(nfa, s_closure)) == NULL)
        goto done;
    f->n_nfa = PyList_GET_SIZE(nfa_trans);
    f->n_afa = PyList_GET_SIZE(states);
    if (!PyList_Check(closures) || PyList_GET_SIZE(closures) != f->n_nfa) {
        bad_automaton("one ε-closure per NFA state");
        goto done;
    }
    /* Columns: the sorted alphabet, then OTHER. */
    if ((labels = PySequence_List(alphabet)) == NULL || PyList_Sort(labels) < 0)
        goto done;
    f->ncols = PyList_GET_SIZE(labels) + 1;
    if ((f->columns = PyMem_Calloc(f->ncols, sizeof(PyObject *))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i + 1 < f->ncols; i++) {
        f->columns[i] = Py_NewRef(PyList_GET_ITEM(labels, i));
        if (!PyUnicode_Check(f->columns[i])) {
            bad_automaton("a label is not a str");
            goto done;
        }
    }
    f->columns[f->ncols - 1] = Py_NewRef(other_label);
    Py_ssize_t n = f->n_nfa, m = f->n_afa;
    f->ann = PyMem_Malloc((n ? n : 1) * sizeof(int));
    f->final_ = PyMem_Calloc(n ? n : 1, 1);
    f->named = PyMem_Calloc((n ? n : 1) * f->ncols, 1);
    f->kind = PyMem_Calloc(m ? m : 1, 1);
    f->label = PyMem_Malloc((m ? m : 1) * sizeof(int));
    f->target = PyMem_Malloc((m ? m : 1) * sizeof(int));
    f->scc = PyMem_Malloc((m ? m : 1) * sizeof(int));
    f->eps_at = PyMem_Calloc(m + 1, sizeof(int));
    f->pred = PyMem_Calloc(m ? m : 1, sizeof(PyObject *));
    if (!f->ann || !f->final_ || !f->named || !f->kind || !f->label ||
        !f->target || !f->scc || !f->eps_at || !f->pred) {
        PyErr_NoMemory();
        goto done;
    }
    /* NFA: λ, finals, the columns each state's transitions name. */
    for (Py_ssize_t s = 0; s < n; s++) {
        f->ann[s] = -1;
        PyObject *labelled = PyList_GET_ITEM(nfa_trans, s);
        if (!PyDict_Check(labelled)) {
            bad_automaton("an NFA state's transitions must be a dict");
            goto done;
        }
        Py_ssize_t pos = 0;
        PyObject *key, *value;
        while (PyDict_Next(labelled, &pos, &key, &value)) {
            int col = column_of(f, key);
            if (col >= 0)
                f->named[s * f->ncols + col] = 1;
        }
        if (!PyAnySet_Check(PyList_GET_ITEM(closures, s))) {
            bad_automaton("an ε-closure must be a set");
            goto done;
        }
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(ann, &pos, &key, &value)) {
        long state, entry;
        if (id_in(key, n, "λ annotates no NFA state", &state) < 0 ||
            id_in(value, m, "λ names no AFA state", &entry) < 0)
            goto done;
        f->ann[state] = (int)entry;
    }
    PyObject *iterator = PyObject_GetIter(finals), *item;
    if (iterator == NULL)
        goto done;
    while ((item = PyIter_Next(iterator)) != NULL) {
        long state;
        int status = id_in(item, n, "a final state is no NFA state", &state);
        Py_DECREF(item);
        if (status < 0) {
            Py_DECREF(iterator);
            goto done;
        }
        f->final_[state] = 1;
    }
    Py_DECREF(iterator);
    if (PyErr_Occurred())
        goto done;
    /* AFA: kind, label column, target, ε lists, predicates. */
    Py_ssize_t total = 0, cap = 2 * m + 1;
    if ((f->eps = PyMem_Malloc(cap * sizeof(int))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject *kinds[] = {s_and, s_or, s_not, s_trans, s_final};
    for (Py_ssize_t s = 0; s < m; s++) {
        PyObject *holder = PyList_GET_ITEM(states, s);
        PyObject *kind = PyObject_GetAttr(holder, s_kind);
        if (kind == NULL)
            goto done;
        int code = -1;
        for (int k = 0; code < 0 && k < 5; k++)
            if (kind == kinds[k]) /* the module's constants: interned */
                code = k;
        for (int k = 0; code < 0 && PyUnicode_Check(kind) && k < 5; k++)
            if (PyUnicode_Compare(kind, kinds[k]) == 0)
                code = k;
        Py_DECREF(kind);
        if (code < 0) {
            bad_automaton("an AFA state of no known kind");
            goto done;
        }
        f->kind[s] = (unsigned char)code;
        f->label[s] = NO_COLUMN;
        f->target[s] = -1;
        if (code <= K_NOT) {
            PyObject *eps = PyObject_GetAttr(holder, s_eps);
            if (eps == NULL)
                goto done;
            Py_ssize_t k = PyList_Check(eps) || PyTuple_Check(eps) ? PySequence_Fast_GET_SIZE(eps) : -1;
            int status = k < 0 || (code == K_NOT && k != 1)
                ? bad_automaton("an operator's ε list") : 0;
            if (status == 0 && total + k > cap) {
                while (cap < total + k)
                    cap *= 2;
                int *grown = cap > INT_MAX ? NULL : PyMem_Realloc(f->eps, cap * sizeof(int));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    status = -1;
                }
                else
                    f->eps = grown;
            }
            for (Py_ssize_t j = 0; status == 0 && j < k; j++) {
                long t;
                status = id_in(PySequence_Fast_GET_ITEM(eps, j), m, "an ε edge", &t);
                f->eps[total++] = (int)t;
            }
            Py_DECREF(eps);
            if (status < 0)
                goto done;
        }
        else if (code == K_TRANS) {
            PyObject *label = PyObject_GetAttr(holder, s_label);
            PyObject *target = label ? PyObject_GetAttr(holder, s_target) : NULL;
            long t = 0;
            int status = target == NULL ? -1 : id_in(target, m, "a transition's target", &t);
            if (status == 0)
                f->label[s] = column_of(f, label);
            Py_XDECREF(label);
            Py_XDECREF(target);
            if (status < 0)
                goto done;
            f->target[s] = (int)t;
        }
        else {
            PyObject *pred = PyObject_GetAttr(holder, s_pred);
            if (pred == NULL)
                goto done;
            if (pred == Py_None)
                Py_DECREF(pred);
            else
                f->pred[s] = pred;
        }
        f->eps_at[s + 1] = (int)total;
    }
    if (flat_scc(f) < 0 || flat_bits(f, nfa_trans, closures) < 0)
        goto done;
    result = PyCapsule_New(f, FLAT_CAPSULE, flat_capsule_free);
    if (result != NULL)
        f = NULL;
done:
    flat_free(f);
    Py_XDECREF(nfa);
    Py_XDECREF(pool);
    Py_XDECREF(states);
    Py_XDECREF(alphabet);
    Py_XDECREF(ann);
    Py_XDECREF(finals);
    Py_XDECREF(labels);
    Py_XDECREF(nfa_trans);
    Py_XDECREF(closures);
    return result;
}

/* The plan's flat automaton: ``kern.flat``, built and stored on first
 * use.  A new reference to the capsule; ``*out`` its contents. */
static PyObject *
flat_of(PyObject *plan, PyObject *kern, Flat **out)
{
    PyObject *capsule = PyObject_GetAttr(kern, s_flat);
    if (capsule == Py_None) {
        Py_DECREF(capsule);
        PyObject *mfa = PyObject_GetAttr(plan, s_mfa);
        capsule = mfa == NULL ? NULL : flat_build(kern, mfa);
        Py_XDECREF(mfa);
        if (capsule != NULL && PyObject_SetAttr(kern, s_flat, capsule) < 0)
            Py_CLEAR(capsule);
    }
    if (capsule == NULL)
        return NULL;
    *out = PyCapsule_GetPointer(capsule, FLAT_CAPSULE);
    if (*out == NULL) {
        Py_DECREF(capsule);
        return NULL;
    }
    return capsule;
}

/* What a pass reads for its pop misses, loaded on the first one. */
typedef struct {
    PyObject *capsule; /* owned: the plan's flat automaton; NULL until loaded */
    Flat *flat;
    PyObject *cfg_relevant, *cfg_r, *cfg_m, *cfg_watch, *cfg_has_ann,
        *pop_cache, *dead_cache;
} Cold;

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
    Cold cold; /* pop misses resolve here, loaded on the first one */
    PyObject *alphabet, *trans; /* the kernel's, read on the first row miss */
} Pass;

static PyObject *cold_fill(Pass *p, Cold *c, long cfg, PyObject *node, PyObject *truths);
static void cold_clear(Cold *c);

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
    cold_clear(&p->cold);
    Py_XDECREF(p->alphabet);
    Py_XDECREF(p->trans);
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

/* DenseKernel.lookup_trans's hit path: ``trans[(cfg, label)]`` with a
 * label outside the alphabet read as OTHER, as a new reference; NULL
 * (no error set) when the table lacks the entry and the miss path must
 * compute it. */
static PyObject *
known_trans(Pass *p, PyObject *cfg, PyObject *label)
{
    if (p->trans == NULL) {
        if ((p->alphabet = PyObject_GetAttr(p->kern, s_alphabet)) == NULL ||
            (p->trans = PyObject_GetAttr(p->kern, s_trans)) == NULL)
            return NULL;
        if (!PyAnySet_Check(p->alphabet) || !PyDict_Check(p->trans)) {
            PyErr_SetString(PyExc_TypeError,
                            "lean pass: alphabet must be a set, trans a dict");
            return NULL;
        }
    }
    int named = PySet_Contains(p->alphabet, label);
    if (named < 0)
        return NULL;
    PyObject *key = PyTuple_Pack(2, cfg, named ? label : other_label);
    if (key == NULL)
        return NULL;
    PyObject *word = PyDict_GetItemWithError(p->trans, key);
    Py_DECREF(key);
    if (word == Py_None)
        word = NULL;
    return Py_XNewRef(word);
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
    if (outcome == NULL)
        outcome = cold_fill(p, &p->cold, cfg, node, truths);
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
            PyObject *word = cfg_obj ? known_trans(p, cfg_obj, label) : NULL;
            if (word == NULL && cfg_obj != NULL && !PyErr_Occurred()) {
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
 * state (``finals`` is a tuple of them).  Alive sets are frozensets. */
static int
has_final(PyObject *alive, PyObject *finals)
{
    if (!PyAnySet_Check(alive)) {
        PyErr_SetString(PyExc_TypeError, "collect_answers: an alive set must be a set");
        return -1;
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

/* ------------------------------------------------------------------ */
/* The dense closure                                                    */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject *plan, *kern, *set_ids, *cfg_ids, *trans;
    PyObject *cfg_mstates, *cfg_relevant, *cfg_watch, *cfg_m, *cfg_r,
        *cfg_has_ann, *cfg_packed, *pops;
    Flat *flat;
    /* The plan's interned sets by content (a mirror of _set_ids for this
     * call), and six bit-row scratch rows: a child's base, mstates,
     * targets and relevant, then the cfg's mstates and relevant. */
    Py_ssize_t cap, count;
    unsigned long long *keys, *scratch;
    PyObject **canon, **ids;
} Closer;

typedef struct {
    PyObject *base, *mstates, *relevant, *watch; /* owned */
    PyObject *m_id, *r_id;                       /* owned */
    int has_final, has_ann;                      /* of mstates */
} ChildSets;

static void
child_clear(ChildSets *c)
{
    Py_CLEAR(c->base);
    Py_CLEAR(c->mstates);
    Py_CLEAR(c->relevant);
    Py_CLEAR(c->watch);
    Py_CLEAR(c->m_id);
    Py_CLEAR(c->r_id);
}

/* CompiledPlan._intern: the canonical set equal to ``fs`` (stolen) and
 * its id, minting ``(fs, len(_set_ids))`` on a miss. */
static int
intern_set(Closer *c, PyObject *fs, PyObject **canon, PyObject **id)
{
    PyObject *entry = PyDict_GetItemWithError(c->set_ids, fs);
    if (entry == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(fs);
            return -1;
        }
        PyObject *count = PyLong_FromSsize_t(PyDict_GET_SIZE(c->set_ids));
        entry = count ? PyTuple_Pack(2, fs, count) : NULL;
        Py_XDECREF(count);
        if (entry == NULL || PyDict_SetItem(c->set_ids, fs, entry) < 0) {
            Py_XDECREF(entry);
            Py_DECREF(fs);
            return -1;
        }
        Py_DECREF(entry); /* the dict holds it */
    }
    Py_DECREF(fs);
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2 ||
        !PyLong_Check(PyTuple_GET_ITEM(entry, 1))) {
        PyErr_SetString(PyExc_TypeError, "cold path: an interned entry must be (set, id)");
        return -1;
    }
    *canon = Py_NewRef(PyTuple_GET_ITEM(entry, 0));
    *id = Py_NewRef(PyTuple_GET_ITEM(entry, 1));
    return 0;
}

static Py_ssize_t
slot_of(Closer *c, const unsigned long long *bits)
{
    Py_ssize_t w = c->flat->words;
    unsigned long long h = 1469598103934665603ULL;
    for (Py_ssize_t k = 0; k < w; k++) {
        h ^= bits[k];
        h *= 1099511628211ULL;
        h ^= h >> 29;
    }
    Py_ssize_t mask = c->cap - 1, i = (Py_ssize_t)(h & (unsigned long long)mask);
    while (c->canon[i] != NULL &&
           memcmp(c->keys + i * w, bits, w * sizeof(unsigned long long)) != 0)
        i = (i + 1) & mask;
    return i;
}

/* Grow the content table to ``cap`` slots (a power of two). */
static int
table_grow(Closer *c, Py_ssize_t cap)
{
    Py_ssize_t old = c->cap, w = c->flat->words;
    unsigned long long *keys = c->keys;
    PyObject **objs = c->canon, **ids = c->ids;
    c->keys = PyMem_Calloc(cap * w, sizeof(unsigned long long));
    c->canon = PyMem_Calloc(cap, sizeof(PyObject *));
    c->ids = PyMem_Calloc(cap, sizeof(PyObject *));
    if (!c->keys || !c->canon || !c->ids) {
        PyMem_Free(c->keys);
        PyMem_Free(c->canon);
        PyMem_Free(c->ids);
        c->keys = keys;
        c->canon = objs;
        c->ids = ids;
        PyErr_NoMemory();
        return -1;
    }
    c->cap = cap;
    for (Py_ssize_t i = 0; i < old; i++)
        if (objs[i] != NULL) {
            Py_ssize_t j = slot_of(c, keys + i * w);
            memcpy(c->keys + j * w, keys + i * w, w * sizeof(unsigned long long));
            c->canon[j] = objs[i];
            c->ids[j] = ids[i];
        }
    PyMem_Free(keys);
    PyMem_Free(objs);
    PyMem_Free(ids);
    return 0;
}

/* Record an interned set (canonical object, id) under its contents,
 * ``bits``; the first set recorded for some contents stays. */
static int
table_put(Closer *c, const unsigned long long *bits, PyObject *canon, PyObject *id)
{
    if (2 * (c->count + 1) > c->cap && table_grow(c, 2 * c->cap) < 0)
        return -1;
    Py_ssize_t i = slot_of(c, bits), w = c->flat->words;
    if (c->canon[i] != NULL)
        return 0;
    memcpy(c->keys + i * w, bits, w * sizeof(unsigned long long));
    c->canon[i] = Py_NewRef(canon);
    c->ids[i] = Py_NewRef(id);
    c->count++;
    return 0;
}

static void
table_clear(Closer *c)
{
    for (Py_ssize_t i = 0; i < c->cap; i++) {
        Py_XDECREF(c->canon[i]);
        Py_XDECREF(c->ids[i]);
    }
    PyMem_Free(c->keys);
    PyMem_Free(c->canon);
    PyMem_Free(c->ids);
    PyMem_Free(c->scratch);
}

/* Seed the table with what the plan has interned already; sets that do
 * not fit the bit width are left out (no child's sets can equal them). */
static int
table_seed(Closer *c)
{
    Flat *f = c->flat;
    Py_ssize_t n = f->n_nfa > f->n_afa ? f->n_nfa : f->n_afa;
    c->scratch = PyMem_Calloc(6 * f->words, sizeof(unsigned long long));
    if (c->scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (table_grow(c, 64) < 0)
        return -1;
    Py_ssize_t pos = 0;
    PyObject *key, *entry;
    while (PyDict_Next(c->set_ids, &pos, &key, &entry)) {
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
            PyErr_SetString(PyExc_TypeError, "cold path: an interned entry must be (set, id)");
            return -1;
        }
        memset(c->scratch, 0, f->words * sizeof(unsigned long long));
        int fits = bits_of(PyTuple_GET_ITEM(entry, 0), n, c->scratch);
        if (fits < 0 || (fits && table_put(c, c->scratch, PyTuple_GET_ITEM(entry, 0),
                                           PyTuple_GET_ITEM(entry, 1)) < 0))
            return -1;
    }
    return 0;
}

/* The plan's canonical set with the contents of ``row`` (ids below
 * ``n``) and its id: the table's, else a frozenset minted from the row
 * and interned (CompiledPlan._intern), then recorded. */
static int
canonical(Closer *c, const unsigned long long *row, Py_ssize_t n, PyObject **canon,
          PyObject **id)
{
    Py_ssize_t i = slot_of(c, row);
    if (c->canon[i] != NULL) {
        *canon = Py_NewRef(c->canon[i]);
        *id = Py_NewRef(c->ids[i]);
        return 0;
    }
    PyObject *fs = set_of(row, n);
    if (fs == NULL || intern_set(c, fs, canon, id) < 0)
        return -1;
    return table_put(c, row, *canon, *id);
}

/* Whether AFA state ``s`` is a transition state on column ``col``. */
static inline int
watches(Flat *f, Py_ssize_t s, Py_ssize_t col)
{
    return f->kind[s] == K_TRANS && (f->label[s] == col || f->label[s] == WILD_COLUMN);
}

/* watch = ((state, target), ...): the transition states of ``rrow`` on
 * column ``col``, in ascending state id. */
static PyObject *
make_watch(Flat *f, const unsigned long long *rrow, Py_ssize_t col)
{
    Py_ssize_t nwatch = 0, k = 0;
    FOR_EACH_BIT(s, rrow, f->n_afa)
        nwatch += watches(f, s, col);
    PyObject *watch = PyTuple_New(nwatch);
    FOR_EACH_BIT(s, rrow, f->n_afa) {
        if (watch == NULL)
            break;
        if (!watches(f, s, col))
            continue;
        PyObject *pair = Py_BuildValue("(ni)", s, f->target[s]);
        if (pair == NULL)
            Py_CLEAR(watch);
        else
            PyTuple_SET_ITEM(watch, k++, pair);
    }
    return watch;
}

/* CompiledPlan._compute_child_sets(mstates, relevant, columns[col]) on
 * bit rows -- ``mrow`` / ``rrow`` hold the cfg's sets: the child's base,
 * mstates and relevant as the plan's canonical sets, taken in the
 * reference's interning order (base, mstates, relevant), and its watch. */
static int
child_sets(Closer *c, const unsigned long long *mrow, const unsigned long long *rrow,
           Py_ssize_t col, ChildSets *out)
{
    Flat *f = c->flat;
    Py_ssize_t w = f->words;
    unsigned long long *base = c->scratch, *mst = base + w, *tgt = mst + w, *rel = tgt + w;
    memset(out, 0, sizeof *out);
    memset(base, 0, 4 * w * sizeof(unsigned long long));
    FOR_EACH_BIT(s, mrow, f->n_nfa) {
        const unsigned long long *step = f->step + (s * f->ncols + col) * w;
        for (Py_ssize_t j = 0; j < w; j++)
            base[j] |= step[j];
    }
    FOR_EACH_BIT(b, base, f->n_nfa) {
        const unsigned long long *clo = f->clo + b * w;
        for (Py_ssize_t j = 0; j < w; j++)
            mst[j] |= clo[j];
    }
    FOR_EACH_BIT(s, rrow, f->n_afa)
        if (watches(f, s, col))
            BIT_SET(tgt, f->target[s]);
    FOR_EACH_BIT(x, mst, f->n_nfa) {
        out->has_final |= f->final_[x];
        if (f->ann[x] >= 0) {
            out->has_ann = 1;
            BIT_SET(tgt, f->ann[x]);
        }
    }
    FOR_EACH_BIT(t, tgt, f->n_afa) {
        const unsigned long long *reach = f->reach + t * w;
        for (Py_ssize_t j = 0; j < w; j++)
            rel[j] |= reach[j];
    }
    PyObject *base_id = NULL;
    int status = canonical(c, base, f->n_nfa, &out->base, &base_id) < 0 ||
                 canonical(c, mst, f->n_nfa, &out->mstates, &out->m_id) < 0 ||
                 canonical(c, rel, f->n_afa, &out->relevant, &out->r_id) < 0 ||
                 (out->watch = make_watch(f, rrow, col)) == NULL ? -1 : 0;
    Py_XDECREF(base_id);
    if (status < 0)
        child_clear(out);
    return status;
}

/* DenseKernel.cfg_of: the cfg id of ``sets`` (minted on a miss).
 * Returns the id, or -1 with an exception set. */
static long
cfg_of(Closer *c, ChildSets *sets)
{
    PyObject *key = PyTuple_Pack(3, sets->m_id, sets->r_id, sets->watch);
    if (key == NULL)
        return -1;
    long cfg = -1;
    PyObject *known = PyDict_GetItemWithError(c->cfg_ids, key);
    if (known != NULL) {
        if (as_long(known, &cfg) == 0 && cfg < 0)
            cfg = out_of_range("cfg", cfg);
        Py_DECREF(key);
        return cfg;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    int pop_needed = PySet_GET_SIZE(sets->relevant) > 0 &&
                     (PyTuple_GET_SIZE(sets->watch) > 0 || sets->has_ann);
    Py_ssize_t next = PyList_GET_SIZE(c->cfg_packed);
    long packed = ((long)next << CFG_SHIFT) | (sets->has_final ? FINAL_BIT : 0) |
                  (pop_needed ? POP_BIT : 0);
    PyObject *id = PyLong_FromSsize_t(next), *word = PyLong_FromLong(packed);
    if (id != NULL && word != NULL &&
        PyList_Append(c->cfg_mstates, sets->mstates) == 0 &&
        PyList_Append(c->cfg_relevant, sets->relevant) == 0 &&
        PyList_Append(c->cfg_watch, sets->watch) == 0 &&
        PyList_Append(c->cfg_m, sets->m_id) == 0 &&
        PyList_Append(c->cfg_r, sets->r_id) == 0 &&
        PyList_Append(c->cfg_has_ann, sets->has_ann ? Py_True : Py_False) == 0 &&
        PyList_Append(c->cfg_packed, word) == 0 &&
        PyList_Append(c->pops, unbuilt) == 0 &&
        PyDict_SetItem(c->cfg_ids, key, id) == 0) /* published last */
        cfg = (long)next;
    Py_XDECREF(id);
    Py_XDECREF(word);
    Py_DECREF(key);
    return cfg;
}

/* The child cfg of ``sets`` (DEAD when both sets are empty) and its
 * packed word (borrowed: cfg_packed's, or ``dead_word``). */
static int
child_word(Closer *c, ChildSets *sets, long *child, PyObject **word)
{
    if (PySet_GET_SIZE(sets->mstates) == 0 && PySet_GET_SIZE(sets->relevant) == 0) {
        *child = DEAD;
        *word = dead_word;
        return 0;
    }
    if ((*child = cfg_of(c, sets)) < 0 ||
        (*word = list_at(c->cfg_packed, *child, "cfg")) == NULL)
        return -1;
    if (!PyLong_Check(*word)) {
        PyErr_SetString(PyExc_TypeError, "cold path: a packed word must be an int");
        return -1;
    }
    return 0;
}

static PyObject *
get_dict(PyObject *owner, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(owner, name);
    if (value != NULL && !PyDict_Check(value)) {
        PyErr_Format(PyExc_TypeError, "cold path: %U must be a dict", name);
        Py_CLEAR(value);
    }
    return value;
}

/* eps_closures(eps) -> [frozenset, ...]: NFA._compute_closures, its
 * fixpoint run on bit rows.  ``eps`` is the NFA's list of ε-target sets;
 * a target out of range raises IndexError. */
static PyObject *
eps_closures(PyObject *module, PyObject *eps)
{
    if (!PyList_Check(eps)) {
        PyErr_SetString(PyExc_TypeError, "eps_closures: eps must be a list");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(eps), w = n / 64 + 1;
    unsigned long long *bits = PyMem_Calloc((n ? n : 1) * w, sizeof(unsigned long long));
    PyObject *closures = NULL;
    if (bits == NULL)
        return PyErr_NoMemory();
    /* sets = [set({i}) | self.eps[i] for i in range(n)] */
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *targets = PyList_GET_ITEM(eps, i);
        if (!PyAnySet_Check(targets)) {
            PyErr_SetString(PyExc_TypeError, "eps_closures: ε targets must be sets");
            goto done;
        }
        BIT_SET(bits + i * w, i);
        int fits = bits_of(targets, n, bits + i * w);
        if (fits <= 0) {
            if (fits == 0)
                PyErr_SetString(PyExc_IndexError, "eps_closures: an ε target is no NFA state");
            goto done;
        }
    }
    int changed = 1;
    while (changed) {
        changed = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            unsigned long long *own = bits + i * w;
            FOR_EACH_BIT(j, own, n)
                for (Py_ssize_t k = 0; k < w; k++) {
                    unsigned long long grow = bits[j * w + k] & ~own[k];
                    own[k] |= grow;
                    changed |= grow != 0;
                }
        }
    }
    if ((closures = PyList_New(n)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *frozen = set_of(bits + i * w, n);
        if (frozen == NULL) {
            Py_CLEAR(closures);
            goto done;
        }
        PyList_SET_ITEM(closures, i, frozen);
    }
done:
    PyMem_Free(bits);
    return closures;
}

/* close(plan, root, max_cfgs) -> (order bytes, children bytes, bases,
 * num_cfgs): the BFS of kernel._close_py from the root cfg, which the
 * caller has minted; the caller holds the plan's intern and cfg locks. */
static PyObject *
dense_close(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "close takes 3 arguments");
        return NULL;
    }
    if (unbuilt == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "cold path used before setup()");
        return NULL;
    }
    long root, max_cfgs;
    if (as_long(args[1], &root) < 0 || as_long(args[2], &max_cfgs) < 0)
        return NULL;
    Closer cl;
    memset(&cl, 0, sizeof cl);
    Closer *c = &cl;
    c->plan = args[0];
    PyObject *capsule = NULL, *bases = NULL, *result = NULL, *cfg_obj = NULL;
    int *queue = NULL, *children = NULL;
    unsigned char *seen = NULL;
    Py_ssize_t qlen = 0, qcap = 16, nchildren = 0, ccap = 64, seen_cap = 64, nseen = 0;
    ChildSets other, sets;
    memset(&other, 0, sizeof other);
    memset(&sets, 0, sizeof sets);
    if ((c->kern = PyObject_GetAttr(c->plan, s_kernel)) == NULL ||
        (c->set_ids = get_dict(c->plan, s_set_ids)) == NULL ||
        (c->cfg_ids = get_dict(c->kern, s_cfg_ids)) == NULL ||
        (c->trans = get_dict(c->kern, s_trans)) == NULL ||
        (c->cfg_mstates = get_list(c->kern, s_cfg_mstates)) == NULL ||
        (c->cfg_relevant = get_list(c->kern, s_cfg_relevant)) == NULL ||
        (c->cfg_watch = get_list(c->kern, s_cfg_watch)) == NULL ||
        (c->cfg_m = get_list(c->kern, s_cfg_m)) == NULL ||
        (c->cfg_r = get_list(c->kern, s_cfg_r)) == NULL ||
        (c->cfg_has_ann = get_list(c->kern, s_cfg_has_ann)) == NULL ||
        (c->cfg_packed = get_list(c->kern, s_cfg_packed)) == NULL ||
        (c->pops = get_list(c->kern, s_pops)) == NULL ||
        (capsule = flat_of(c->plan, c->kern, &c->flat)) == NULL ||
        (bases = PyList_New(0)) == NULL)
        goto done;
    Flat *f = c->flat;
    if (table_seed(c) < 0)
        goto done;
    unsigned long long *mrow = c->scratch + 4 * f->words, *rrow = mrow + f->words;
    queue = PyMem_Malloc(qcap * sizeof(int));
    children = PyMem_Malloc(ccap * sizeof(int));
    seen = PyMem_Calloc(seen_cap, 1);
    if (!queue || !children || !seen) {
        PyErr_NoMemory();
        goto done;
    }
    seen[DEAD] = 1;
    nseen = 1;
    if (root < 0 || root >= PyList_GET_SIZE(c->cfg_packed)) {
        out_of_range("cfg", root);
        goto done;
    }
    if (root != DEAD) {
        if (root >= seen_cap) {
            unsigned char *grown = PyMem_Realloc(seen, root + 1);
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            memset(grown + seen_cap, 0, root + 1 - seen_cap);
            seen = grown;
            seen_cap = root + 1;
        }
        seen[root] = 1;
        nseen++;
        queue[qlen++] = (int)root;
    }
    unsigned char *named = PyMem_Malloc(f->ncols);
    if (named == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t qi = 0; qi < qlen; qi++) {
        long cfg = queue[qi];
        PyObject *mstates = list_at(c->cfg_mstates, cfg, "cfg");
        PyObject *relevant = mstates ? list_at(c->cfg_relevant, cfg, "cfg") : NULL;
        if (relevant == NULL ||
            row_of(mstates, f->n_nfa, f->words, "NFA state", mrow) < 0 ||
            row_of(relevant, f->n_afa, f->words, "AFA state", rrow) < 0)
            goto fail_named;
        /* The columns some state of the cfg names; the rest take OTHER's sets. */
        memset(named, 0, f->ncols);
        FOR_EACH_BIT(s, mrow, f->n_nfa)
            for (Py_ssize_t col = 0; col < f->ncols; col++)
                named[col] |= f->named[s * f->ncols + col];
        FOR_EACH_BIT(s, rrow, f->n_afa)
            if (f->kind[s] == K_TRANS && f->label[s] >= 0)
                named[f->label[s]] = 1;
        child_clear(&other);
        if (child_sets(c, mrow, rrow, f->ncols - 1, &other) < 0)
            goto fail_named;
        Py_CLEAR(cfg_obj);
        if ((cfg_obj = PyLong_FromLong(cfg)) == NULL)
            goto fail_named;
        long other_child = -1, child;
        PyObject *other_word = NULL, *word;
        for (Py_ssize_t col = 0; col < f->ncols; col++) {
            ChildSets *use = &other;
            if (named[col]) {
                child_clear(&sets);
                if (child_sets(c, mrow, rrow, col, &sets) < 0 ||
                    child_word(c, &sets, &child, &word) < 0)
                    goto fail_named;
                use = &sets;
            }
            else {
                if (other_word == NULL &&
                    child_word(c, &other, &other_child, &other_word) < 0)
                    goto fail_named;
                child = other_child;
                word = other_word;
            }
            PyObject *key = PyTuple_Pack(2, cfg_obj, f->columns[col]);
            int bad = key == NULL || PyDict_SetItem(c->trans, key, word) < 0 ||
                      PyList_Append(bases, use->base) < 0;
            Py_XDECREF(key);
            if (bad)
                goto fail_named;
            if (nchildren == ccap) {
                int *grown = PyMem_Realloc(children, 2 * ccap * sizeof(int));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto fail_named;
                }
                children = grown;
                ccap *= 2;
            }
            children[nchildren++] = (int)child;
            if (child >= seen_cap) {
                Py_ssize_t cap = seen_cap;
                while (cap <= child)
                    cap *= 2;
                unsigned char *grown = PyMem_Realloc(seen, cap);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto fail_named;
                }
                memset(grown + seen_cap, 0, cap - seen_cap);
                seen = grown;
                seen_cap = cap;
            }
            if (!seen[child]) {
                seen[child] = 1;
                if (++nseen <= max_cfgs) {
                    if (qlen == qcap) {
                        int *grown = PyMem_Realloc(queue, 2 * qcap * sizeof(int));
                        if (grown == NULL) {
                            PyErr_NoMemory();
                            goto fail_named;
                        }
                        queue = grown;
                        qcap *= 2;
                    }
                    queue[qlen++] = (int)child;
                }
            }
        }
    }
    PyMem_Free(named);
    result = Py_BuildValue("(y#y#On)", (const char *)queue, qlen * (Py_ssize_t)sizeof(int),
                           (const char *)children, nchildren * (Py_ssize_t)sizeof(int),
                           bases, PyList_GET_SIZE(c->cfg_packed));
    goto done;
fail_named:
    PyMem_Free(named);
done:
    child_clear(&other);
    child_clear(&sets);
    PyMem_Free(queue);
    PyMem_Free(children);
    PyMem_Free(seen);
    Py_XDECREF(cfg_obj);
    table_clear(c);
    Py_XDECREF(capsule);
    Py_XDECREF(bases);
    Py_XDECREF(c->kern);
    Py_XDECREF(c->set_ids);
    Py_XDECREF(c->cfg_ids);
    Py_XDECREF(c->trans);
    Py_XDECREF(c->cfg_mstates);
    Py_XDECREF(c->cfg_relevant);
    Py_XDECREF(c->cfg_watch);
    Py_XDECREF(c->cfg_m);
    Py_XDECREF(c->cfg_r);
    Py_XDECREF(c->cfg_has_ann);
    Py_XDECREF(c->cfg_packed);
    Py_XDECREF(c->pops);
    return result;
}

/* ------------------------------------------------------------------ */
/* Pop fills                                                            */
/* ------------------------------------------------------------------ */
static void
cold_clear(Cold *c)
{
    Py_CLEAR(c->capsule);
    Py_CLEAR(c->cfg_relevant);
    Py_CLEAR(c->cfg_r);
    Py_CLEAR(c->cfg_m);
    Py_CLEAR(c->cfg_watch);
    Py_CLEAR(c->cfg_has_ann);
    Py_CLEAR(c->pop_cache);
    Py_CLEAR(c->dead_cache);
}

static int
cold_load(Cold *c, PyObject *plan, PyObject *kern)
{
    if ((c->capsule = flat_of(plan, kern, &c->flat)) == NULL ||
        (c->cfg_relevant = get_list(kern, s_cfg_relevant)) == NULL ||
        (c->cfg_r = get_list(kern, s_cfg_r)) == NULL ||
        (c->cfg_m = get_list(kern, s_cfg_m)) == NULL ||
        (c->cfg_watch = get_list(kern, s_cfg_watch)) == NULL ||
        (c->cfg_has_ann = get_list(kern, s_cfg_has_ann)) == NULL ||
        (c->pop_cache = PyObject_GetAttr(plan, s_pop_cache)) == NULL ||
        (c->dead_cache = PyObject_GetAttr(plan, s_dead_cache)) == NULL) {
        cold_clear(c);
        return -1;
    }
    return 0;
}

/* A resolved value: from the bit set when this fill resolved it, else
 * ``values.get(state, False)`` of the cached dict.  -1 on error. */
static int
value_of(const unsigned long long *val, PyObject *values, Py_ssize_t n, long state)
{
    if (values == NULL)
        return (unsigned long)state < (unsigned long)n && BIT_GET(val, state);
    PyObject *number = PyLong_FromLong(state);
    if (number == NULL)
        return -1;
    PyObject *value = PyDict_GetItemWithError(values, number);
    Py_DECREF(number);
    if (value == NULL)
        return PyErr_Occurred() ? -1 : 0;
    return PyObject_IsTrue(value);
}

/* The operators of one fill, SCC by SCC in the reference's order:
 * CompiledPlan._resolve on bits.  ``ops`` is sorted by SCC id. */
static void
resolve_operators(Flat *f, const int *ops, Py_ssize_t nops, unsigned long long *val)
{
    for (Py_ssize_t i = 0; i < nops;) {
        Py_ssize_t j = i + 1;
        while (j < nops && f->scc[ops[j]] == f->scc[ops[i]])
            j++;
        int changed = 1;
        while (changed) {
            changed = 0;
            for (Py_ssize_t k = i; k < j; k++) {
                int s = ops[k], kind = f->kind[s], value = kind == K_AND;
                for (int e = f->eps_at[s]; e < f->eps_at[s + 1]; e++) {
                    int operand = (int)BIT_GET(val, f->eps[e]);
                    if (kind == K_AND ? !operand : operand) {
                        value = kind != K_AND;
                        break;
                    }
                }
                if (kind == K_NOT)
                    value = !BIT_GET(val, f->eps[f->eps_at[s]]);
                if (value && !BIT_GET(val, s)) {
                    BIT_SET(val, s);
                    changed = j - i > 1; /* a lone state is resolved once */
                }
            }
        }
        i = j;
    }
}

/* DenseKernel.fill_pop, compiled: resolve and store the pop table entry
 * of ``cfg`` at ``node`` (whose children reported ``truths``, or NULL).
 * Returns a new reference to the outcome. */
static PyObject *
cold_fill(Pass *p, Cold *c, long cfg, PyObject *node, PyObject *truths)
{
    if (c->capsule == NULL && cold_load(c, p->plan, p->kern) < 0)
        return NULL;
    Flat *f = c->flat;
    PyObject *relevant = list_at(c->cfg_relevant, cfg, "cfg");
    if (relevant == NULL)
        return NULL;
    Py_INCREF(relevant);
    PyObject *r_id = NULL, *values = NULL, *key = NULL, *number = NULL,
             *dead = NULL, *report = NULL, *outcome = NULL, *entry = NULL,
             *mstates = NULL, *watch = NULL, *result = NULL;
    Py_ssize_t m = f->n_afa ? f->n_afa : 1, w = f->words, nfinals = 0, ntrans = 0, nops = 0;
    int *split = PyMem_Malloc(3 * m * sizeof(int));
    unsigned long long *val = PyMem_Calloc(3 * w, sizeof(unsigned long long));
    if (!split || !val) {
        PyErr_NoMemory();
        goto done;
    }
    int *finals = split, *trans = finals + m, *ops = trans + m;
    /* The resolved values, the relevant set and the mstates set as bit rows. */
    unsigned long long *rrow = val + w, *mrow = rrow + w;
    if ((r_id = list_at(c->cfg_r, cfg, "cfg")) == NULL)
        goto done;
    Py_INCREF(r_id);
    if (row_of(relevant, f->n_afa, w, "AFA state", rrow) < 0)
        goto done;
    /* CompiledPlan._relevant_plan: finals, transitions, operators by SCC,
     * each in ascending state id. */
    FOR_EACH_BIT(s, rrow, f->n_afa) {
        if (f->kind[s] == K_FINAL)
            finals[nfinals++] = (int)s;
        else if (f->kind[s] == K_TRANS)
            trans[ntrans++] = (int)s;
        else {
            Py_ssize_t at = nops++;
            while (at > 0 && f->scc[ops[at - 1]] > f->scc[s]) { /* stable */
                ops[at] = ops[at - 1];
                at--;
            }
            ops[at] = (int)s;
        }
    }
    if (f->cyclic_not || nfinals > 63) {
        /* The reference raises (a NOT in an ε-cycle) or needs wide ints. */
        PyObject *cfg_obj = PyLong_FromLong(cfg);
        if (cfg_obj != NULL) {
            PyObject *args[5] = {p->plan, cfg_obj, p->columns, node, truths};
            result = PyObject_Vectorcall(p->fill_pop, args, truths ? 5 : 4, NULL);
            Py_DECREF(cfg_obj);
        }
        goto done;
    }
    /* The predicate bits at the node, and the finals holding everywhere. */
    unsigned long long bits = 0, full = 0;
    for (Py_ssize_t k = 0; k < nfinals; k++) {
        PyObject *pred = f->pred[finals[k]];
        if (pred == NULL) {
            full |= 1ULL << k;
            continue;
        }
        PyObject *call[3] = {pred, p->columns, node};
        PyObject *held = PyObject_VectorcallMethod(s_holds, call, 3, NULL);
        int truth = held == NULL ? -1 : PyObject_IsTrue(held);
        Py_XDECREF(held);
        if (truth < 0)
            goto done;
        if (truth)
            bits |= 1ULL << k;
    }
    full |= bits;
    if ((number = PyLong_FromUnsignedLongLong(full)) == NULL)
        goto done;
    key = truths ? PyTuple_Pack(3, r_id, number, truths) : PyTuple_Pack(2, r_id, number);
    if (key == NULL)
        goto done;
    Py_ssize_t resolved;
    values = memo_get(c->pop_cache, key);
    if (values == NULL && PyErr_Occurred())
        goto done;
    if (values != NULL) {
        if (!PyDict_Check(values)) {
            PyErr_SetString(PyExc_TypeError, "cold path: cached pop values must be a dict");
            goto done;
        }
        resolved = PyDict_GET_SIZE(values);
    }
    else {
        /* CompiledPlan._resolve: leaves, then the operators' fixpoint. */
        for (Py_ssize_t k = 0; k < nfinals; k++)
            if (full >> k & 1)
                BIT_SET(val, finals[k]);
        for (Py_ssize_t k = 0; truths && k < ntrans; k++) {
            PyObject *state = PyLong_FromLong(trans[k]);
            int in = state == NULL ? -1 : PySet_Contains(truths, state);
            Py_XDECREF(state);
            if (in < 0)
                goto done;
            if (in)
                BIT_SET(val, trans[k]);
        }
        resolve_operators(f, ops, nops, val);
        PyObject *fresh = PyDict_New();
        if (fresh == NULL)
            goto done;
        const int *groups[3] = {finals, trans, ops};
        Py_ssize_t sizes[3] = {nfinals, ntrans, nops};
        for (int g = 0; g < 3; g++)
            for (Py_ssize_t k = 0; k < sizes[g]; k++) {
                PyObject *state = PyLong_FromLong(groups[g][k]);
                int bad = state == NULL ||
                          PyDict_SetItem(fresh, state,
                                         BIT_GET(val, groups[g][k]) ? Py_True : Py_False) < 0;
                Py_XDECREF(state);
                if (bad) {
                    Py_DECREF(fresh);
                    goto done;
                }
            }
        resolved = PyDict_GET_SIZE(fresh);
        int stored = PyObject_SetItem(c->pop_cache, key, fresh);
        Py_DECREF(fresh);
        if (stored < 0)
            goto done;
    }
    /* The dead NFA states (CompiledPlan._compute_dead), when λ is in play. */
    PyObject *flag = list_at(c->cfg_has_ann, cfg, "cfg");
    int has_ann = flag == NULL ? -1 : PyObject_IsTrue(flag);
    if (has_ann < 0)
        goto done;
    if (has_ann) {
        PyObject *m_id = list_at(c->cfg_m, cfg, "cfg");
        if (m_id == NULL)
            goto done;
        Py_ssize_t width = PyTuple_GET_SIZE(key);
        PyObject *dead_key = PyTuple_New(width + 1);
        if (dead_key == NULL)
            goto done;
        PyTuple_SET_ITEM(dead_key, 0, Py_NewRef(m_id));
        for (Py_ssize_t k = 0; k < width; k++)
            PyTuple_SET_ITEM(dead_key, k + 1, Py_NewRef(PyTuple_GET_ITEM(key, k)));
        dead = memo_get(c->dead_cache, dead_key);
        if (dead == NULL && !PyErr_Occurred()) {
            /* mstates less the states whose λ entry is absent or true. */
            mstates = list_at(p->cfg_mstates, cfg, "cfg");
            Py_XINCREF(mstates);
            int bad = mstates == NULL || row_of(mstates, f->n_nfa, w, "NFA state", mrow) < 0;
            FOR_EACH_BIT(s, mrow, bad ? 0 : f->n_nfa) {
                int alive = f->ann[s] < 0 ? 1 : value_of(val, values, f->n_afa, f->ann[s]);
                if (alive < 0) {
                    bad = 1;
                    break;
                }
                if (alive)
                    mrow[s >> 6] &= ~(1ULL << (s & 63));
            }
            if (!bad && (dead = set_of(mrow, f->n_nfa)) != NULL &&
                PyObject_SetItem(c->dead_cache, dead_key, dead) < 0)
                Py_CLEAR(dead);
        }
        Py_DECREF(dead_key);
        if (dead == NULL)
            goto done;
    }
    /* The watchers to report to the parent: fstates↑. */
    watch = list_at(c->cfg_watch, cfg, "cfg");
    if (watch == NULL)
        goto done;
    Py_INCREF(watch);
    if (!PyTuple_Check(watch)) {
        PyErr_SetString(PyExc_TypeError, "cold path: a cfg's watch must be a tuple");
        goto done;
    }
    if ((report = PyList_New(0)) == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(watch); k++) {
        PyObject *pair = PyTuple_GET_ITEM(watch, k);
        long target;
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "cold path: a watch entry must be (watcher, target)");
            goto done;
        }
        if (as_long(PyTuple_GET_ITEM(pair, 1), &target) < 0)
            goto done;
        int held = value_of(val, values, f->n_afa, target);
        if (held < 0 || (held && PyList_Append(report, PyTuple_GET_ITEM(pair, 0)) < 0))
            goto done;
    }
    Py_SETREF(report, PyList_AsTuple(report));
    if (report == NULL)
        goto done;
    if ((outcome = Py_BuildValue("(OOn)", dead ? dead : Py_None, report, resolved)) == NULL)
        goto done;
    /* DenseKernel.pop_entry, then the outcome under the observed bits. */
    entry = list_at(p->pops, cfg, "cfg");
    if (entry == NULL)
        goto done;
    Py_INCREF(entry);
    if (entry == unbuilt) {
        PyObject *preds = PyList_New(0), *table = NULL;
        int bad = preds == NULL;
        for (Py_ssize_t k = 0; !bad && k < nfinals; k++) {
            PyObject *pred = f->pred[finals[k]];
            if (pred == NULL)
                continue;
            PyObject *holds = PyObject_GetAttr(pred, s_holds);
            PyObject *pair = holds ? Py_BuildValue("(KO)", 1ULL << k, holds) : NULL;
            Py_XDECREF(holds);
            bad = pair == NULL || PyList_Append(preds, pair) < 0;
            Py_XDECREF(pair);
        }
        if (!bad) {
            Py_SETREF(preds, PyList_AsTuple(preds));
            table = preds ? PyDict_New() : NULL;
        }
        Py_SETREF(entry, table ? PyTuple_Pack(2, preds, table) : NULL);
        Py_XDECREF(preds);
        Py_XDECREF(table);
        if (entry == NULL || PyList_SetItem(p->pops, cfg, Py_NewRef(entry)) < 0)
            goto done;
    }
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
        PyErr_SetString(PyExc_TypeError, "lean pass: a pop table entry must be (preds, outcomes)");
        goto done;
    }
    Py_SETREF(number, PyLong_FromUnsignedLongLong(bits));
    if (number == NULL)
        goto done;
    if (truths) {
        Py_SETREF(number, PyTuple_Pack(2, number, truths));
        if (number == NULL)
            goto done;
    }
    if (PyObject_SetItem(PyTuple_GET_ITEM(entry, 1), number, outcome) == 0)
        result = Py_NewRef(outcome);
done:
    PyMem_Free(split);
    PyMem_Free(val);
    Py_XDECREF(relevant);
    Py_XDECREF(r_id);
    Py_XDECREF(values);
    Py_XDECREF(key);
    Py_XDECREF(number);
    Py_XDECREF(dead);
    Py_XDECREF(report);
    Py_XDECREF(outcome);
    Py_XDECREF(entry);
    Py_XDECREF(mstates);
    Py_XDECREF(watch);
    return result;
}

/* setup(expired, new_row, clock, check_interval, constants, unbuilt,
 * other_label): install the kernel's helpers; ``constants`` is kernel's
 * (FINAL_BIT, POP_BIT, CFG_SHIFT, DEAD, UNFILLED), refused unless it
 * matches this file's; ``unbuilt`` is the shared pop entry of a cfg that
 * has not popped and ``other_label`` the OTHER column's label. */
static PyObject *
setup(PyObject *module, PyObject *args)
{
    PyObject *expired, *new_row, *clock, *constants, *unbuilt_entry, *other;
    long long interval;
    if (!PyArg_ParseTuple(args, "OOOLO!OU", &expired, &new_row, &clock, &interval,
                          &PyTuple_Type, &constants, &unbuilt_entry, &other))
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
    Py_XSETREF(unbuilt, Py_NewRef(unbuilt_entry));
    Py_XSETREF(other_label, Py_NewRef(other));
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
    {"eps_closures", eps_closures, METH_O,
     "eps_closures(eps) -> [frozenset, ...]\n\n"
     "NFA._compute_closures, compiled (see repro.automata.nfa)."},
    {"close", (PyCFunction)(void (*)(void))dense_close, METH_FASTCALL,
     "close(plan, root, max_cfgs) -> (order, children, bases, num_cfgs)\n\n"
     "The dense closure, compiled (see repro.hype.kernel._close_py)."},
    {"setup", setup, METH_VARARGS,
     "setup(expired, new_row, clock, check_interval, constants, unbuilt, other_label)"},
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
    INTERN(s_flat, "flat");
    INTERN(s_alphabet, "alphabet");
    INTERN(s_pool, "pool");
    INTERN(s_states, "states");
    INTERN(s_kind, "kind");
    INTERN(s_eps, "eps");
    INTERN(s_label, "label");
    INTERN(s_target, "target");
    INTERN(s_pred, "pred");
    INTERN(s_trans, "trans");
    INTERN(s_ann, "ann");
    INTERN(s_closure, "_closure");
    INTERN(s_set_ids, "_set_ids");
    INTERN(s_cfg_ids, "cfg_ids");
    INTERN(s_cfg_relevant, "cfg_relevant");
    INTERN(s_cfg_watch, "cfg_watch");
    INTERN(s_cfg_m, "cfg_m");
    INTERN(s_cfg_r, "cfg_r");
    INTERN(s_cfg_has_ann, "cfg_has_ann");
    INTERN(s_pop_cache, "_pop_cache");
    INTERN(s_dead_cache, "_dead_cache");
    INTERN(s_holds, "holds");
    INTERN(s_wildcard, "*");
    INTERN(s_and, "and");
    INTERN(s_or, "or");
    INTERN(s_not, "not");
    INTERN(s_final, "final");
#undef INTERN
    if ((dead_word = PyLong_FromLong(DEAD)) == NULL)
        return NULL;
    return PyModule_Create(&lean_module);
}
