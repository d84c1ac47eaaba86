/* _speedups: optional compiled core for the repro.des simulation kernel.
 *
 * Implements the event heap (the exact sibling of heapq's sift algorithms,
 * over the same (time, priority, sequence, event) tuples), the run pump
 * (pop -> advance clock -> fire callbacks -> unhandled-failure check), the
 * Environment.timeout / Environment.schedule fast paths, and the generator
 * driver (Process._resume), which together cover the entire per-event hot
 * path of a simulation.
 *
 * Everything here is semantics-preserving by construction:
 *
 *   - heap entries are ordinary Python tuples; the compiled comparison
 *     reproduces tuple lexicographic ordering (== scan, then <) and falls
 *     back to PyObject_RichCompareBool for anything but the kernel's
 *     (float, int, int, event) shape.  The unique sequence number in slot
 *     2 means comparisons never reach the event object, so pop order is
 *     the total (time, priority, sequence) order either way;
 *   - events are real repro.des.events instances: attribute access is
 *     compiled to direct __slots__ stores (offsets harvested from the
 *     classes' member descriptors at install time, with a generic
 *     attribute-protocol fallback for foreign objects), so pure-Python
 *     code observes identical state at every step;
 *   - callbacks run through the generic call protocol, except bound
 *     methods of Process._resume, which dispatch to the compiled driver —
 *     the same statements as the pure method, including interrupt
 *     retargeting, StopProcess/StopIteration termination, and the
 *     non-event-yield error;
 *   - exceptions (EmptySchedule, _StopSimulation from the until callback,
 *     anything a process raises) simply propagate out of pump().
 *
 * The module is import-optional: library code must reach it only through
 * repro.des.engine.make_environment() (lint rule REP305 enforces this),
 * and the pure kernel remains the reference implementation.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ---- module state -------------------------------------------------------
 * Installed once by repro.des.native via install(); a single interpreter
 * is assumed (bind() refuses to run uninstalled). */

static PyObject *g_env_cls = NULL;        /* repro.des.engine.Environment */
static PyObject *g_event_cls = NULL;      /* repro.des.events.Event */
static PyObject *g_timeout_cls = NULL;    /* repro.des.events.Timeout */
static PyObject *g_process_cls = NULL;    /* repro.des.process.Process */
static PyObject *g_empty_schedule = NULL; /* repro.des.errors.EmptySchedule */
static PyObject *g_stop_process = NULL;   /* repro.des.errors.StopProcess */
static PyObject *g_resume_func = NULL;    /* Process._resume (the function) */
static PyObject *g_empty_tuple = NULL;
static PyObject *g_zero_int = NULL;   /* 0: the pure kernel's delay bound */
static PyObject *g_zero_float = NULL; /* 0.0: schedule()'s default delay */
static PyObject *g_one_int = NULL;    /* NORMAL in repro.des.engine */

static PyObject *s_now = NULL;        /* "_now" */
static PyObject *s_active = NULL;     /* "_active_proc" */
static PyObject *s_callbacks = NULL;  /* "callbacks" */
static PyObject *s_value = NULL;      /* "_value" */
static PyObject *s_ok = NULL;         /* "_ok" */
static PyObject *s_defused = NULL;    /* "defused" */
static PyObject *s_env = NULL;        /* "env" */
static PyObject *s_delay = NULL;      /* "_delay" */
static PyObject *s_generator = NULL;  /* "_generator" */
static PyObject *s_target = NULL;     /* "_target" */
static PyObject *s_resume = NULL;     /* "_resume" */
static PyObject *s_remove = NULL;     /* "remove" */
static PyObject *s_append = NULL;     /* "append" */
static PyObject *s_send = NULL;       /* "send" */
static PyObject *s_throw = NULL;      /* "throw" */
static PyObject *s_schedule = NULL;   /* "schedule" */
static PyObject *s_value_attr = NULL; /* "value" (StopProcess payload) */

/* __slots__ member offsets, harvested from the classes' member
 * descriptors at install time.  Base-class slots keep their offsets in
 * every (single-inheritance) subclass, so Event's offsets are valid for
 * Timeout/Process/Condition instances alike; direct access is still gated
 * on a PyObject_TypeCheck so foreign objects take the generic path. */
static struct {
    Py_ssize_t env_now, env_active;
    Py_ssize_t ev_env, ev_callbacks, ev_value, ev_ok, ev_defused;
    Py_ssize_t tm_delay;
    Py_ssize_t pr_generator, pr_target;
} off;

#define SLOT_PTR(ob, offset) ((PyObject **)((char *)(ob) + (offset)))

/* Read a slot (new reference); NULL slots and non-kernel instances fall
 * back to the generic protocol (which raises the right AttributeError). */
static inline PyObject *
fast_get(PyObject *ob, Py_ssize_t offset, PyObject *name, int direct)
{
    if (direct) {
        PyObject *v = *SLOT_PTR(ob, offset);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(ob, name);
}

static inline int
fast_set(PyObject *ob, Py_ssize_t offset, PyObject *name, PyObject *v,
         int direct)
{
    if (direct) {
        PyObject *old = *SLOT_PTR(ob, offset);
        Py_INCREF(v);
        *SLOT_PTR(ob, offset) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(ob, name, v);
}

static inline int
is_event(PyObject *ob)
{
    return Py_IS_TYPE(ob, (PyTypeObject *)g_timeout_cls)
           || PyObject_TypeCheck(ob, (PyTypeObject *)g_event_cls);
}

/* ---- event heap ---------------------------------------------------------
 * heapq's siftdown/siftup over a PyList of key tuples, with a compiled
 * comparison for the kernel's entry shape.  The size re-checks mirror
 * heapq's own defensive guards. */

/* entry_lt(x, y) == (x < y) under tuple lexicographic comparison, for
 * 4-tuples whose leading item is an exact float.  Priorities/sequence
 * numbers compare through the object protocol only when the earlier
 * items tie, exactly like tuple comparison's ==-scan. */
static int
entry_lt(PyObject *x, PyObject *y)
{
    if (PyTuple_CheckExact(x) && PyTuple_CheckExact(y)
        && PyTuple_GET_SIZE(x) == 4 && PyTuple_GET_SIZE(y) == 4) {
        PyObject *tx = PyTuple_GET_ITEM(x, 0);
        PyObject *ty = PyTuple_GET_ITEM(y, 0);
        if (PyFloat_CheckExact(tx) && PyFloat_CheckExact(ty)) {
            double a = PyFloat_AS_DOUBLE(tx);
            double b = PyFloat_AS_DOUBLE(ty);
            PyObject *px, *py;
            int eq;
            if (a != b) {
                /* NaN: a != b holds and a < b is false — the same result
                 * tuple comparison produces. */
                return a < b;
            }
            px = PyTuple_GET_ITEM(x, 1);
            py = PyTuple_GET_ITEM(y, 1);
            if (px != py) { /* small ints intern; != means really compare */
                eq = PyObject_RichCompareBool(px, py, Py_EQ);
                if (eq < 0)
                    return -1;
                if (!eq)
                    return PyObject_RichCompareBool(px, py, Py_LT);
            }
            /* Sequence numbers are unique, so they settle every tie. */
            return PyObject_RichCompareBool(PyTuple_GET_ITEM(x, 2),
                                            PyTuple_GET_ITEM(y, 2), Py_LT);
        }
    }
    return PyObject_RichCompareBool(x, y, Py_LT);
}

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem, *parent;
    Py_ssize_t parentpos, size;
    int cmp;

    size = PyList_GET_SIZE(heap);
    if (pos >= size) {
        PyErr_SetString(PyExc_IndexError, "heap index out of range");
        return -1;
    }
    while (pos > startpos) {
        parentpos = (pos - 1) >> 1;
        newitem = PyList_GET_ITEM(heap, pos);
        parent = PyList_GET_ITEM(heap, parentpos);
        Py_INCREF(newitem);
        Py_INCREF(parent);
        cmp = entry_lt(newitem, parent);
        Py_DECREF(newitem);
        Py_DECREF(parent);
        if (cmp < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "event queue changed size during heap operation");
            return -1;
        }
        if (cmp == 0)
            break;
        newitem = PyList_GET_ITEM(heap, pos);
        parent = PyList_GET_ITEM(heap, parentpos);
        PyList_SET_ITEM(heap, parentpos, newitem);
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, endpos, childpos, limit;
    PyObject *a, *b, *tmp;
    int cmp;

    endpos = PyList_GET_SIZE(heap);
    limit = endpos >> 1;
    while (pos < limit) {
        childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            a = PyList_GET_ITEM(heap, childpos);
            b = PyList_GET_ITEM(heap, childpos + 1);
            Py_INCREF(a);
            Py_INCREF(b);
            cmp = entry_lt(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (cmp < 0)
                return -1;
            if (endpos != PyList_GET_SIZE(heap)) {
                PyErr_SetString(
                    PyExc_RuntimeError,
                    "event queue changed size during heap operation");
                return -1;
            }
            if (cmp == 0)
                childpos += 1;
        }
        a = PyList_GET_ITEM(heap, childpos);
        tmp = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, a);
        PyList_SET_ITEM(heap, childpos, tmp);
        pos = childpos;
    }
    return heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Pop the smallest entry (new reference); raises EmptySchedule when the
 * queue has drained, which is what the pure pump's IndexError handler
 * converts it to. */
static PyObject *
heap_pop(PyObject *heap)
{
    PyObject *lastelt, *returnitem;
    Py_ssize_t n;

    n = PyList_GET_SIZE(heap);
    if (n == 0) {
        PyErr_SetString(g_empty_schedule, "no scheduled events remain");
        return NULL;
    }
    lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    if (n == 1)
        return lastelt;
    returnitem = PyList_GET_ITEM(heap, 0);
    Py_INCREF(returnitem);
    PyList_SetItem(heap, 0, lastelt); /* steals lastelt, releases old [0] */
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

/* ---- scheduling ---------------------------------------------------------
 * The bound fast paths carry their state as a (env, queue, eid, direct)
 * tuple in the PyCFunction's self slot: _queue and _eid are assigned once
 * in Environment.__init__ and never rebound, so caching them is safe and
 * saves two attribute lookups per call. */

static int
schedule_entry(PyObject *env, PyObject *queue, PyObject *eid, int env_direct,
               PyObject *event, PyObject *priority, PyObject *delay)
{
    PyObject *now, *at, *seq, *entry;

    now = fast_get(env, off.env_now, s_now, env_direct);
    if (now == NULL)
        return -1;
    /* `self._now + delay` must stay bit-for-bit: exact float + float is
     * the same IEEE add float.__add__ performs; everything else goes
     * through the full number protocol. */
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(delay)) {
        at = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                + PyFloat_AS_DOUBLE(delay));
    }
    else {
        at = PyNumber_Add(now, delay);
    }
    Py_DECREF(now);
    if (at == NULL)
        return -1;
    seq = Py_TYPE(eid)->tp_iternext(eid);
    if (seq == NULL) {
        Py_DECREF(at);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "event id counter exhausted");
        return -1;
    }
    entry = PyTuple_New(4);
    if (entry == NULL) {
        Py_DECREF(at);
        Py_DECREF(seq);
        return -1;
    }
    PyTuple_SET_ITEM(entry, 0, at);  /* steals */
    Py_INCREF(priority);
    PyTuple_SET_ITEM(entry, 1, priority);
    PyTuple_SET_ITEM(entry, 2, seq); /* steals */
    Py_INCREF(event);
    PyTuple_SET_ITEM(entry, 3, event);
    if (heap_push(queue, entry) < 0) {
        Py_DECREF(entry);
        return -1;
    }
    Py_DECREF(entry);
    return 0;
}

/* timeout(delay, value=None): allocate a Timeout, fill its slots, and
 * push it — the compiled equivalent of Timeout.__init__'s inlined path. */
static PyObject *
env_timeout(PyObject *state, PyObject *const *args, Py_ssize_t nargs,
            PyObject *kwnames)
{
    PyObject *env = PyTuple_GET_ITEM(state, 0);
    PyObject *queue = PyTuple_GET_ITEM(state, 1);
    PyObject *eid = PyTuple_GET_ITEM(state, 2);
    int env_direct = PyTuple_GET_ITEM(state, 3) == Py_True;
    PyObject *delay = NULL, *value = NULL, *tm, *cbs;
    PyTypeObject *tp;
    int neg;

    if (nargs > 2) {
        PyErr_Format(PyExc_TypeError,
                     "timeout() takes at most 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (nargs >= 1)
        delay = args[0];
    if (nargs >= 2)
        value = args[1];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "delay") == 0) {
                if (delay != NULL)
                    goto duplicate;
                delay = v;
            }
            else if (PyUnicode_CompareWithASCIIString(name, "value") == 0) {
                if (value != NULL)
                    goto duplicate;
                value = v;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "timeout() got an unexpected keyword argument "
                             "%R", name);
                return NULL;
            }
            continue;
        duplicate:
            PyErr_Format(PyExc_TypeError,
                         "timeout() got multiple values for argument %R",
                         name);
            return NULL;
        }
    }
    if (delay == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "timeout() missing required argument: 'delay'");
        return NULL;
    }
    if (value == NULL)
        value = Py_None;

    if (PyFloat_CheckExact(delay))
        neg = PyFloat_AS_DOUBLE(delay) < 0.0;
    else {
        neg = PyObject_RichCompareBool(delay, g_zero_int, Py_LT);
        if (neg < 0)
            return NULL;
    }
    if (neg)
        return PyErr_Format(PyExc_ValueError, "negative delay %S", delay);

    tp = (PyTypeObject *)g_timeout_cls;
    tm = tp->tp_new(tp, g_empty_tuple, NULL);
    if (tm == NULL)
        return NULL;
    cbs = PyList_New(0);
    if (cbs == NULL) {
        Py_DECREF(tm);
        return NULL;
    }
    /* The allocation is exactly Timeout, so its slots sit at the
     * harvested offsets; same assignment order as Timeout.__init__. */
    fast_set(tm, off.ev_env, s_env, env, 1);
    fast_set(tm, off.ev_callbacks, s_callbacks, cbs, 1);
    Py_DECREF(cbs);
    fast_set(tm, off.ev_defused, s_defused, Py_False, 1);
    fast_set(tm, off.tm_delay, s_delay, delay, 1);
    fast_set(tm, off.ev_ok, s_ok, Py_True, 1);
    fast_set(tm, off.ev_value, s_value, value, 1);
    if (schedule_entry(env, queue, eid, env_direct, tm, g_one_int, delay)
        < 0) {
        Py_DECREF(tm);
        return NULL;
    }
    return tm;
}

/* schedule(event, priority=NORMAL, delay=0.0) */
static PyObject *
env_schedule(PyObject *state, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *env = PyTuple_GET_ITEM(state, 0);
    PyObject *queue = PyTuple_GET_ITEM(state, 1);
    PyObject *eid = PyTuple_GET_ITEM(state, 2);
    int env_direct = PyTuple_GET_ITEM(state, 3) == Py_True;
    PyObject *event = NULL, *priority = NULL, *delay = NULL;

    if (nargs > 3) {
        PyErr_Format(PyExc_TypeError,
                     "schedule() takes at most 3 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (nargs >= 1)
        event = args[0];
    if (nargs >= 2)
        priority = args[1];
    if (nargs >= 3)
        delay = args[2];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "priority") == 0) {
                if (priority != NULL)
                    goto duplicate;
                priority = v;
            }
            else if (PyUnicode_CompareWithASCIIString(name, "delay") == 0) {
                if (delay != NULL)
                    goto duplicate;
                delay = v;
            }
            else if (PyUnicode_CompareWithASCIIString(name, "event") == 0) {
                if (event != NULL)
                    goto duplicate;
                event = v;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "schedule() got an unexpected keyword argument "
                             "%R", name);
                return NULL;
            }
            continue;
        duplicate:
            PyErr_Format(PyExc_TypeError,
                         "schedule() got multiple values for argument %R",
                         name);
            return NULL;
        }
    }
    if (event == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() missing required argument: 'event'");
        return NULL;
    }
    if (priority == NULL)
        priority = g_one_int;
    if (delay == NULL)
        delay = g_zero_float;

    if (schedule_entry(env, queue, eid, env_direct, event, priority, delay)
        < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- generator driver (compiled Process._resume) ------------------------ */

/* Advance `gen` with the state of `event`: send its value on success,
 * throw its exception on failure (setting event.defused first, exactly
 * like the pure driver).  Returns 1 with *out = the yielded object, 0
 * with *out = the generator's return value, or -1 with the exception
 * (StopProcess, Interrupt, user errors, ...) left set for the caller. */
static int
gen_advance(PyObject *gen, PyObject *event, int ev_direct, PyObject **out)
{
    PyObject *value, *res;
    int ok;

    {
        PyObject *okobj = fast_get(event, off.ev_ok, s_ok, ev_direct);
        if (okobj == NULL)
            return -1;
        if (okobj == Py_True)
            ok = 1;
        else if (okobj == Py_False)
            ok = 0;
        else
            ok = PyObject_IsTrue(okobj);
        Py_DECREF(okobj);
        if (ok < 0)
            return -1;
    }

    if (ok) {
        value = fast_get(event, off.ev_value, s_value, ev_direct);
        if (value == NULL)
            return -1;
#if PY_VERSION_HEX >= 0x030A0000
        {
            PySendResult sr = PyIter_Send(gen, value, &res);
            Py_DECREF(value);
            if (sr == PYGEN_NEXT) {
                *out = res;
                return 1;
            }
            if (sr == PYGEN_RETURN) {
                *out = res;
                return 0;
            }
            return -1;
        }
#else
        res = PyObject_CallMethodOneArg(gen, s_send, value);
        Py_DECREF(value);
#endif
    }
    else {
        /* The event failed: throw its exception into the process. */
        if (fast_set(event, off.ev_defused, s_defused, Py_True, ev_direct)
            < 0)
            return -1;
        value = fast_get(event, off.ev_value, s_value, ev_direct);
        if (value == NULL)
            return -1;
        res = PyObject_CallMethodOneArg(gen, s_throw, value);
        Py_DECREF(value);
    }

    if (res != NULL) {
        *out = res;
        return 1;
    }
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        /* Generator finished (send() on 3.9, or throw() absorbed by a
         * `return`): unwrap the StopIteration payload. */
        PyObject *type, *exc, *tb;
        PyErr_Fetch(&type, &exc, &tb);
        PyErr_NormalizeException(&type, &exc, &tb);
        Py_XDECREF(type);
        Py_XDECREF(tb);
        if (exc == NULL) {
            Py_INCREF(Py_None);
            *out = Py_None;
            return 0;
        }
        *out = PyObject_GetAttr(exc, s_value_attr);
        Py_DECREF(exc);
        return *out == NULL ? -1 : 0;
    }
    return -1;
}

/* Terminate the process event: clear the active process, set the
 * process's outcome, and schedule it through env.schedule (the compiled
 * callable a NativeEnvironment binds once, at construction). */
static int
finish_process(PyObject *proc, int proc_direct, PyObject *env, int env_direct,
               PyObject *okflag, PyObject *value)
{
    PyObject *sched, *res;

    if (fast_set(env, off.env_active, s_active, Py_None, env_direct) < 0)
        return -1;
    if (fast_set(proc, off.ev_ok, s_ok, okflag, proc_direct) < 0)
        return -1;
    if (fast_set(proc, off.ev_value, s_value, value, proc_direct) < 0)
        return -1;
    sched = PyObject_GetAttr(env, s_schedule);
    if (sched == NULL)
        return -1;
    res = PyObject_CallOneArg(sched, proc);
    Py_DECREF(sched);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The compiled Process._resume: statement-for-statement the pure driver.
 * `method_cb` is the bound method that was registered as the callback; it
 * doubles as the `self._resume` value for re-subscription and for
 * unsubscribe (bound methods compare ==, so list.remove behaves
 * identically to the pure driver's fresh method objects). */
static int
resume_process(PyObject *method_cb, PyObject *proc, PyObject *event)
{
    int proc_direct = PyObject_TypeCheck(proc, (PyTypeObject *)g_process_cls);
    int env_direct;
    PyObject *env, *gen = NULL, *target, *cur = NULL;
    int rc = -1;

    env = fast_get(proc, off.ev_env, s_env, proc_direct);
    if (env == NULL)
        return -1;
    env_direct = PyObject_TypeCheck(env, (PyTypeObject *)g_env_cls);
    if (fast_set(env, off.env_active, s_active, proc, env_direct) < 0)
        goto done;

    /* Interrupts may arrive while we were waiting on a different target;
     * unsubscribe from the old target so its later firing is ignored. */
    target = fast_get(proc, off.pr_target, s_target, proc_direct);
    if (target == NULL)
        goto done;
    if (target != Py_None && target != event) {
        PyObject *tcbs = fast_get(target, off.ev_callbacks, s_callbacks,
                                  is_event(target));
        if (tcbs == NULL) {
            Py_DECREF(target);
            goto done;
        }
        if (tcbs != Py_None) {
            PyObject *res =
                PyObject_CallMethodOneArg(tcbs, s_remove, method_cb);
            if (res == NULL) {
                if (PyErr_ExceptionMatches(PyExc_ValueError))
                    PyErr_Clear(); /* defensive, like the pure driver */
                else {
                    Py_DECREF(tcbs);
                    Py_DECREF(target);
                    goto done;
                }
            }
            else
                Py_DECREF(res);
        }
        Py_DECREF(tcbs);
    }
    Py_DECREF(target);
    if (fast_set(proc, off.pr_target, s_target, Py_None, proc_direct) < 0)
        goto done;

    gen = fast_get(proc, off.pr_generator, s_generator, proc_direct);
    if (gen == NULL)
        goto done;

    cur = event;
    Py_INCREF(cur);
    for (;;) {
        PyObject *next_event = NULL;
        int state = gen_advance(gen, cur, is_event(cur), &next_event);

        Py_CLEAR(cur);
        if (state == 0) {
            /* Generator returned: terminate successfully with its value. */
            rc = finish_process(proc, proc_direct, env, env_direct, Py_True,
                                next_event);
            Py_DECREF(next_event);
            goto done;
        }
        if (state < 0) {
            PyObject *type, *exc, *tb;
            PyErr_Fetch(&type, &exc, &tb);
            PyErr_NormalizeException(&type, &exc, &tb);
            if (exc == NULL) { /* should not happen; re-raise as-is */
                PyErr_Restore(type, exc, tb);
                goto done;
            }
            if (PyErr_GivenExceptionMatches(exc, g_stop_process)) {
                /* env.exit(value): terminate successfully with the value. */
                PyObject *value = PyObject_GetAttr(exc, s_value_attr);
                Py_DECREF(exc);
                Py_XDECREF(type);
                Py_XDECREF(tb);
                if (value == NULL)
                    goto done;
                rc = finish_process(proc, proc_direct, env, env_direct,
                                    Py_True, value);
                Py_DECREF(value);
                goto done;
            }
            /* Any other exception fails the process event (the pump
             * crashes later if nobody defuses it). */
            Py_XDECREF(type);
            Py_XDECREF(tb);
            rc = finish_process(proc, proc_direct, env, env_direct, Py_False,
                                exc);
            Py_DECREF(exc);
            goto done;
        }

        if (!PyObject_TypeCheck(next_event, (PyTypeObject *)g_event_cls)) {
            PyObject *msg, *error;
            msg = PyUnicode_FromFormat("process yielded a non-event: %R",
                                       next_event);
            Py_DECREF(next_event);
            if (msg == NULL)
                goto done;
            error = PyObject_CallOneArg(PyExc_RuntimeError, msg);
            Py_DECREF(msg);
            if (error == NULL)
                goto done;
            rc = finish_process(proc, proc_direct, env, env_direct, Py_False,
                                error);
            Py_DECREF(error);
            goto done;
        }

        {
            int nev_direct = is_event(next_event);
            PyObject *cbs = fast_get(next_event, off.ev_callbacks,
                                     s_callbacks, nev_direct);
            if (cbs == NULL) {
                Py_DECREF(next_event);
                goto done;
            }
            if (cbs != Py_None) {
                /* Event has not fired yet: subscribe and suspend. */
                int arc;
                if (PyList_CheckExact(cbs))
                    arc = PyList_Append(cbs, method_cb);
                else {
                    PyObject *res =
                        PyObject_CallMethodOneArg(cbs, s_append, method_cb);
                    arc = res == NULL ? -1 : 0;
                    Py_XDECREF(res);
                }
                Py_DECREF(cbs);
                if (arc < 0
                    || fast_set(proc, off.pr_target, s_target, next_event,
                                proc_direct) < 0
                    || fast_set(env, off.env_active, s_active, Py_None,
                                env_direct) < 0) {
                    Py_DECREF(next_event);
                    goto done;
                }
                Py_DECREF(next_event);
                rc = 0;
                goto done;
            }
            Py_DECREF(cbs);
        }
        /* Event already processed: loop and resume immediately with its
         * value (already-fired events and immediate resources). */
        cur = next_event;
    }

done:
    Py_XDECREF(cur);
    Py_XDECREF(gen);
    Py_DECREF(env);
    return rc;
}

/* ---- run pump ----------------------------------------------------------- */

static PyObject *
core_pump(PyObject *state, PyObject *Py_UNUSED(ignored))
{
    PyObject *env = PyTuple_GET_ITEM(state, 0);
    PyObject *queue = PyTuple_GET_ITEM(state, 1);
    int env_direct = PyTuple_GET_ITEM(state, 3) == Py_True;

    for (;;) {
        PyObject *item, *event, *callbacks, *okobj;
        int ev_direct, truth;

        item = heap_pop(queue);
        if (item == NULL)
            return NULL;
        if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 4) {
            Py_DECREF(item);
            PyErr_SetString(PyExc_TypeError,
                            "malformed event heap entry (expected a "
                            "(time, priority, seq, event) tuple)");
            return NULL;
        }
        event = PyTuple_GET_ITEM(item, 3);
        Py_INCREF(event);
        if (fast_set(env, off.env_now, s_now, PyTuple_GET_ITEM(item, 0),
                     env_direct) < 0) {
            Py_DECREF(item);
            Py_DECREF(event);
            return NULL;
        }
        Py_DECREF(item);

        ev_direct = is_event(event);
        callbacks = fast_get(event, off.ev_callbacks, s_callbacks, ev_direct);
        if (callbacks == NULL) {
            Py_DECREF(event);
            return NULL;
        }
        if (fast_set(event, off.ev_callbacks, s_callbacks, Py_None,
                     ev_direct) < 0) {
            Py_DECREF(callbacks);
            Py_DECREF(event);
            return NULL;
        }
        if (PyList_CheckExact(callbacks)) {
            /* Re-reading the size each round mirrors Python's list
             * iterator; callbacks re-entering schedule() mutate the
             * queue, never this (now-detached) list. */
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
                PyObject *cb = PyList_GET_ITEM(callbacks, i);
                Py_INCREF(cb);
                if (Py_IS_TYPE(cb, &PyMethod_Type)
                    && PyMethod_GET_FUNCTION(cb) == g_resume_func) {
                    /* Bound Process._resume: run the compiled driver. */
                    if (resume_process(cb, PyMethod_GET_SELF(cb), event)
                        < 0) {
                        Py_DECREF(cb);
                        Py_DECREF(callbacks);
                        Py_DECREF(event);
                        return NULL;
                    }
                    Py_DECREF(cb);
                }
                else {
                    PyObject *res = PyObject_CallOneArg(cb, event);
                    Py_DECREF(cb);
                    if (res == NULL) {
                        Py_DECREF(callbacks);
                        Py_DECREF(event);
                        return NULL;
                    }
                    Py_DECREF(res);
                }
            }
        }
        else {
            /* An Event subclass swapped in a non-list container. */
            PyObject *it = PyObject_GetIter(callbacks);
            PyObject *cb;
            if (it == NULL) {
                Py_DECREF(callbacks);
                Py_DECREF(event);
                return NULL;
            }
            while ((cb = PyIter_Next(it)) != NULL) {
                PyObject *res = PyObject_CallOneArg(cb, event);
                Py_DECREF(cb);
                if (res == NULL)
                    break;
                Py_DECREF(res);
            }
            Py_DECREF(it);
            if (PyErr_Occurred()) {
                Py_DECREF(callbacks);
                Py_DECREF(event);
                return NULL;
            }
        }
        Py_DECREF(callbacks);

        okobj = fast_get(event, off.ev_ok, s_ok, ev_direct);
        if (okobj == NULL) {
            Py_DECREF(event);
            return NULL;
        }
        if (okobj == Py_True)
            truth = 1;
        else if (okobj == Py_False)
            truth = 0;
        else
            truth = PyObject_IsTrue(okobj);
        Py_DECREF(okobj);
        if (truth < 0) {
            Py_DECREF(event);
            return NULL;
        }
        if (!truth) {
            PyObject *defused =
                fast_get(event, off.ev_defused, s_defused, ev_direct);
            int handled;
            if (defused == NULL) {
                Py_DECREF(event);
                return NULL;
            }
            handled = PyObject_IsTrue(defused);
            Py_DECREF(defused);
            if (handled < 0) {
                Py_DECREF(event);
                return NULL;
            }
            if (!handled) {
                /* An unhandled failed event crashes the simulation,
                 * exactly like the pure pump's `raise event._value`. */
                PyObject *value =
                    fast_get(event, off.ev_value, s_value, ev_direct);
                Py_DECREF(event);
                if (value == NULL)
                    return NULL;
                if (PyExceptionInstance_Check(value)) {
                    PyObject *exc_type = (PyObject *)Py_TYPE(value);
                    Py_INCREF(exc_type);
                    PyErr_SetObject(exc_type, value);
                    Py_DECREF(exc_type);
                }
                else if (PyExceptionClass_Check(value)) {
                    PyErr_SetObject(value, NULL);
                }
                else {
                    PyErr_SetString(PyExc_TypeError,
                                    "exceptions must derive from "
                                    "BaseException");
                }
                Py_DECREF(value);
                return NULL;
            }
        }
        Py_DECREF(event);
    }
}

/* ---- module surface ----------------------------------------------------- */

static PyMethodDef timeout_def = {
    "timeout", (PyCFunction)(void (*)(void))env_timeout,
    METH_FASTCALL | METH_KEYWORDS,
    "timeout(delay, value=None) -> Timeout\n\n"
    "Compiled Environment.timeout fast path (bit-identical scheduling)."};

static PyMethodDef schedule_def = {
    "schedule", (PyCFunction)(void (*)(void))env_schedule,
    METH_FASTCALL | METH_KEYWORDS,
    "schedule(event, priority=NORMAL, delay=0.0)\n\n"
    "Compiled Environment.schedule fast path (bit-identical ordering)."};

static PyMethodDef pump_def = {
    "pump", (PyCFunction)core_pump, METH_NOARGS,
    "pump()\n\nRun the event loop until an exception unwinds it."};

/* Harvest a __slots__ member offset from a class's member descriptor. */
static Py_ssize_t
slot_offset(PyObject *cls, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    Py_ssize_t offset = -1;

    if (descr == NULL)
        return -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member != NULL
            && (member->type == T_OBJECT_EX || member->type == T_OBJECT))
            offset = member->offset;
    }
    Py_DECREF(descr);
    if (offset < 0 && !PyErr_Occurred())
        PyErr_Format(PyExc_RuntimeError,
                     "%S.%s is not a __slots__ member; the compiled core "
                     "cannot bind to this kernel build", cls, name);
    return offset;
}

static PyObject *
speedups_install(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *env_cls, *event_cls, *timeout_cls, *process_cls;
    PyObject *empty_schedule, *stop_process, *resume;

    if (!PyArg_ParseTuple(args, "OOOOOO:install", &env_cls, &event_cls,
                          &timeout_cls, &process_cls, &empty_schedule,
                          &stop_process))
        return NULL;
    if (!PyType_Check(env_cls) || !PyType_Check(event_cls)
        || !PyType_Check(timeout_cls) || !PyType_Check(process_cls)) {
        PyErr_SetString(PyExc_TypeError,
                        "install: Environment/Event/Timeout/Process must "
                        "be types");
        return NULL;
    }
    if (!PyExceptionClass_Check(empty_schedule)
        || !PyExceptionClass_Check(stop_process)) {
        PyErr_SetString(PyExc_TypeError,
                        "install: EmptySchedule/StopProcess must be "
                        "exception classes");
        return NULL;
    }
    resume = PyObject_GetAttr(process_cls, s_resume);
    if (resume == NULL)
        return NULL;

    if ((off.env_now = slot_offset(env_cls, "_now")) < 0
        || (off.env_active = slot_offset(env_cls, "_active_proc")) < 0
        || (off.ev_env = slot_offset(event_cls, "env")) < 0
        || (off.ev_callbacks = slot_offset(event_cls, "callbacks")) < 0
        || (off.ev_value = slot_offset(event_cls, "_value")) < 0
        || (off.ev_ok = slot_offset(event_cls, "_ok")) < 0
        || (off.ev_defused = slot_offset(event_cls, "defused")) < 0
        || (off.tm_delay = slot_offset(timeout_cls, "_delay")) < 0
        || (off.pr_generator = slot_offset(process_cls, "_generator")) < 0
        || (off.pr_target = slot_offset(process_cls, "_target")) < 0) {
        Py_DECREF(resume);
        return NULL;
    }

    Py_INCREF(env_cls);
    Py_XSETREF(g_env_cls, env_cls);
    Py_INCREF(event_cls);
    Py_XSETREF(g_event_cls, event_cls);
    Py_INCREF(timeout_cls);
    Py_XSETREF(g_timeout_cls, timeout_cls);
    Py_INCREF(process_cls);
    Py_XSETREF(g_process_cls, process_cls);
    Py_INCREF(empty_schedule);
    Py_XSETREF(g_empty_schedule, empty_schedule);
    Py_INCREF(stop_process);
    Py_XSETREF(g_stop_process, stop_process);
    Py_XSETREF(g_resume_func, resume);
    Py_RETURN_NONE;
}

static PyObject *
speedups_bind(PyObject *Py_UNUSED(module), PyObject *env)
{
    PyObject *queue = NULL, *eid = NULL, *state = NULL;
    PyObject *f_timeout = NULL, *f_schedule = NULL, *f_pump = NULL;
    PyObject *direct, *out = NULL;

    if (g_timeout_cls == NULL || g_empty_schedule == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_speedups.install() has not been called");
        return NULL;
    }
    queue = PyObject_GetAttrString(env, "_queue");
    if (queue == NULL)
        goto error;
    if (!PyList_CheckExact(queue)) {
        PyErr_SetString(PyExc_TypeError,
                        "environment _queue must be a plain list");
        goto error;
    }
    eid = PyObject_GetAttrString(env, "_eid");
    if (eid == NULL)
        goto error;
    if (Py_TYPE(eid)->tp_iternext == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "environment _eid must be an iterator");
        goto error;
    }
    direct = PyObject_TypeCheck(env, (PyTypeObject *)g_env_cls) ? Py_True
                                                                : Py_False;
    state = PyTuple_Pack(4, env, queue, eid, direct);
    if (state == NULL)
        goto error;
    f_timeout = PyCFunction_New(&timeout_def, state);
    f_schedule = PyCFunction_New(&schedule_def, state);
    f_pump = PyCFunction_New(&pump_def, state);
    if (f_timeout == NULL || f_schedule == NULL || f_pump == NULL)
        goto error;
    out = PyTuple_Pack(3, f_timeout, f_schedule, f_pump);

error:
    Py_XDECREF(queue);
    Py_XDECREF(eid);
    Py_XDECREF(state);
    Py_XDECREF(f_timeout);
    Py_XDECREF(f_schedule);
    Py_XDECREF(f_pump);
    return out;
}

static PyMethodDef speedups_methods[] = {
    {"install", speedups_install, METH_VARARGS,
     "install(Environment, Event, Timeout, Process, EmptySchedule, "
     "StopProcess)\n\n"
     "Register the kernel classes the compiled core manipulates."},
    {"bind", speedups_bind, METH_O,
     "bind(env) -> (timeout, schedule, pump)\n\n"
     "Compiled callables bound to one environment's queue and id counter."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    "repro.des._speedups",
    "Compiled event heap + run pump for the repro.des kernel.\n\n"
    "Never import this directly from library code: the selection seam is\n"
    "repro.des.engine.make_environment (see docs/PERFORMANCE.md).",
    -1,
    speedups_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *module = PyModule_Create(&speedups_module);
    if (module == NULL)
        return NULL;

#define INTERN(var, text)                                                 \
    do {                                                                  \
        var = PyUnicode_InternFromString(text);                           \
        if (var == NULL)                                                  \
            goto fail;                                                    \
    } while (0)

    INTERN(s_now, "_now");
    INTERN(s_active, "_active_proc");
    INTERN(s_callbacks, "callbacks");
    INTERN(s_value, "_value");
    INTERN(s_ok, "_ok");
    INTERN(s_defused, "defused");
    INTERN(s_env, "env");
    INTERN(s_delay, "_delay");
    INTERN(s_generator, "_generator");
    INTERN(s_target, "_target");
    INTERN(s_resume, "_resume");
    INTERN(s_remove, "remove");
    INTERN(s_append, "append");
    INTERN(s_send, "send");
    INTERN(s_throw, "throw");
    INTERN(s_schedule, "schedule");
    INTERN(s_value_attr, "value");
#undef INTERN

    g_empty_tuple = PyTuple_New(0);
    g_zero_int = PyLong_FromLong(0);
    g_zero_float = PyFloat_FromDouble(0.0);
    g_one_int = PyLong_FromLong(1); /* NORMAL in repro.des.engine */
    if (g_empty_tuple == NULL || g_zero_int == NULL || g_zero_float == NULL
        || g_one_int == NULL)
        goto fail;

    if (PyModule_AddIntConstant(module, "COMPILED", 1) < 0)
        goto fail;
    return module;

fail:
    Py_DECREF(module);
    return NULL;
}
