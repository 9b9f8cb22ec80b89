/*
 * Native epoch drain: the event loop of repro.sim.system.SimulatedSystem
 * in C, for the `native` simulation backend.
 *
 * The drain owns the system machinery -- the int-packed event heap,
 * MLP-limited trace issue, per-bank timing (tRP/tRCD/tCL/tBL/tRC/tRAS)
 * with the per-rank tFAW window, open/closed/minimalist-open pages,
 * FR-FCFS and BLISS picks, RAA counting with the Mithril+ MRR gate,
 * and the cached auto-refresh horizon.  Everything that carries RowHammer
 * semantics stays the Python object the system built and is called
 * from here: every scheme's on_activate / throttle_release /
 * rfm_needed_flag, a non-stock hammer model, and the controller's ARR,
 * RFM and auto-refresh application (BankController._apply_arr / _apply_rfm /
 * advance_refresh).  Around those three, the bank's timing fields are
 * written to the Python BankTimingModel and read back, so the Python
 * code sees and updates the same state the scalar backend would.  The
 * stock single-distance HammerModel runs inline (hammer_activate), but
 * on the model's own Python dict and fields, so its state never leaves
 * the Python object either.
 *
 * The statement order mirrors SimulatedSystem._bank_event /
 * _try_issue / _complete_event and BankController.serve line for
 * line; results are byte-identical to the scalar backend (the golden
 * suite and the differential property run both).
 *
 * Entry point: run(spec, limit) -> state.  repro/sim/native/__init__.py
 * builds `spec` from the Python components and writes `state` back.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

enum { EV_ISSUE = 0, EV_BANK = 1, EV_COMPLETE = 2 };
enum { POLICY_OPEN = 0, POLICY_CLOSED = 1, POLICY_MINIMALIST = 2 };

#define SEQ_BITS 40
#define SEQ_LIMIT (((uint64_t)1) << SEQ_BITS)
#define LOW_BITS 22
#define IDENT_BITS 20
#define IDENT_MASK ((((uint64_t)1) << IDENT_BITS) - 1)

/* Heap entry: ordered by (cycle, seq); kind and ident ride below seq
 * exactly as in the Python int key, so ties never reach them. */
typedef struct {
    int64_t cycle;
    uint64_t key; /* seq << LOW_BITS | kind << IDENT_BITS | ident */
} Event;

typedef struct {
    int64_t arrival;
    int64_t row;
    int32_t core;
    int32_t is_write;
} Req;

typedef struct {
    PyObject *entries; /* list or tuple of TraceEntry (owned) */
    Py_ssize_t total;
    Py_ssize_t index;
    int64_t outstanding, next_issue, reads_issued, writes_issued, mlp;
    int stalled;
} Core;

typedef struct {
    /* borrowed from the spec tuple, which outlives the drain */
    PyObject *controller, *bank, *refresh;
    PyObject *hammer_act, *scheme_act, *throttle, *flag;
    PyObject *hammer; /* stock single-distance HammerModel, run inline */
    int64_t hammer_rows, flip_th;
    Req *queue;
    Py_ssize_t qlen, qcap;
    int32_t *occupancy; /* queued requests per core */
    int scheduled;
    int has_open;
    int64_t open_row, ready, last_act, act_count, pre_count, access_count;
    int64_t trp, trcd, tcl, tbl, trc, tras;
    int64_t consecutive_hits, refresh_next;
    int channel, faw, sched, policy;
    int64_t burst;
    int has_rfm, mrr_gated;
    int64_t raa_th, raa_value, rfm_issued, rfm_elided, mrr_reads;
    int64_t reads, writes, acts, pres;
} Bank;

typedef struct {
    int64_t window, tfaw, len, head;
    int64_t *ring; /* oldest at head */
} Faw;

typedef struct {
    int bliss;
    int64_t threshold, bl_cycles, last_core, streak;
    int64_t *until; /* per core; -1 = never blacklisted */
    char *listed;   /* per core: an entry exists in _blacklist_until */
} Sched;

typedef struct {
    Core *cores;
    Py_ssize_t ncores;
    Bank *banks;
    Py_ssize_t nbanks;
    int64_t *bus;
    Py_ssize_t nbus;
    Faw *faws;
    Py_ssize_t nfaws;
    Sched *scheds;
    Py_ssize_t nscheds;
    Event *heap;
    Py_ssize_t heap_n, heap_cap;
    uint64_t seq;
    int64_t *rel; /* per-event throttle-release memo, one per queued request */
    Py_ssize_t rel_cap;
    int64_t row_hits, row_misses;
    int64_t *served, *last_completion;
    PyObject *flip_event; /* repro.dram.hammer.FlipEvent */
} Sim;

static PyObject *s_open_row, *s_ready_cycle, *s_last_act, *s_pre_count,
    *s_next_tick, *s_bank_index, *s_row, *s_is_write, *s_gap_cycles,
    *s_advance_refresh, *s_apply_arr, *s_apply_rfm, *s_disturbance,
    *s_max_disturbance, *s_max_disturbance_row, *s_flips, *s_cycle,
    *s_aggressor, *s_disturbance_kw, *s_rows_per_bank, *s_flip_th,
    *empty_tuple;

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static int
as_i64(PyObject *obj, int64_t *out)
{
    long long value = PyLong_AsLongLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)value;
    return 0;
}

static int
attr_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int rc = as_i64(value, out);
    Py_DECREF(value);
    return rc;
}

static int
item_i64(PyObject *tuple, Py_ssize_t i, int64_t *out)
{
    return as_i64(PyTuple_GET_ITEM(tuple, i), out);
}

static int
set_i64(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return rc;
}

static PyObject *
none_or(PyObject *obj)
{
    return obj == Py_None ? NULL : obj;
}

/* Call f(a, b) with two int arguments; new reference or NULL. */
static PyObject *
call2(PyObject *f, int64_t a, int64_t b)
{
    PyObject *args[2];
    args[0] = PyLong_FromLongLong(a);
    args[1] = PyLong_FromLongLong(b);
    PyObject *result = NULL;
    if (args[0] != NULL && args[1] != NULL)
        result = PyObject_Vectorcall(f, args, 2, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    return result;
}

/* ------------------------------------------------------------------ */
/* event heap                                                          */
/* ------------------------------------------------------------------ */

static inline int
ev_less(const Event *a, const Event *b)
{
    return a->cycle < b->cycle || (a->cycle == b->cycle && a->key < b->key);
}

static int
push(Sim *S, int64_t cycle, int kind, Py_ssize_t ident)
{
    S->seq += 1;
    if (S->seq >= SEQ_LIMIT) {
        PyErr_Format(PyExc_OverflowError,
                     "event sequence exceeded %llu (heap-key seq field)",
                     (unsigned long long)SEQ_LIMIT);
        return -1;
    }
    if (S->heap_n == S->heap_cap) {
        Py_ssize_t cap = S->heap_cap ? 2 * S->heap_cap : 64;
        Event *grown = PyMem_Realloc(S->heap, cap * sizeof(Event));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        S->heap = grown;
        S->heap_cap = cap;
    }
    Event ev = {cycle, (S->seq << LOW_BITS)
                           | ((uint64_t)kind << IDENT_BITS)
                           | (uint64_t)ident};
    Py_ssize_t i = S->heap_n++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!ev_less(&ev, &S->heap[parent]))
            break;
        S->heap[i] = S->heap[parent];
        i = parent;
    }
    S->heap[i] = ev;
    return 0;
}

static Event
pop(Sim *S)
{
    Event top = S->heap[0];
    Event last = S->heap[--S->heap_n];
    Py_ssize_t n = S->heap_n, i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_less(&S->heap[child + 1], &S->heap[child]))
            child += 1;
        if (!ev_less(&S->heap[child], &last))
            break;
        S->heap[i] = S->heap[child];
        i = child;
    }
    if (n)
        S->heap[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* bank state <-> BankTimingModel, around Python-side application      */
/* ------------------------------------------------------------------ */

static int
bank_to_py(Bank *B)
{
    if (B->has_open) {
        if (set_i64(B->bank, s_open_row, B->open_row) < 0)
            return -1;
    }
    else if (PyObject_SetAttr(B->bank, s_open_row, Py_None) < 0)
        return -1;
    if (set_i64(B->bank, s_ready_cycle, B->ready) < 0
        || set_i64(B->bank, s_last_act, B->last_act) < 0
        || set_i64(B->bank, s_pre_count, B->pre_count) < 0)
        return -1;
    return 0;
}

static int
bank_from_py(Bank *B)
{
    PyObject *open_row = PyObject_GetAttr(B->bank, s_open_row);
    if (open_row == NULL)
        return -1;
    B->has_open = open_row != Py_None;
    int rc = B->has_open ? as_i64(open_row, &B->open_row) : 0;
    Py_DECREF(open_row);
    if (rc < 0 || attr_i64(B->bank, s_ready_cycle, &B->ready) < 0
        || attr_i64(B->bank, s_last_act, &B->last_act) < 0
        || attr_i64(B->bank, s_pre_count, &B->pre_count) < 0)
        return -1;
    return 0;
}

/* controller.<method>(*args) with the bank state synced both ways. */
static int
apply_on_bank(Bank *B, PyObject *method, PyObject *arg0, int64_t cycle)
{
    if (bank_to_py(B) < 0)
        return -1;
    PyObject *boxed = PyLong_FromLongLong(cycle);
    if (boxed == NULL)
        return -1;
    PyObject *result;
    if (arg0 != NULL)
        result = PyObject_CallMethodObjArgs(B->controller, method, arg0,
                                            boxed, NULL);
    else
        result = PyObject_CallMethodObjArgs(B->controller, method, boxed,
                                            NULL);
    Py_DECREF(boxed);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return bank_from_py(B);
}

/* ------------------------------------------------------------------ */
/* HammerModel.on_activate, blast_weights == (1.0,)                    */
/* ------------------------------------------------------------------ */

/* One victim of the stock single-distance model, on the model's own
 * _disturbance dict and fields (no C-side copy to write back). */
static int
hammer_victim(Sim *S, Bank *B, PyObject *dist, int64_t victim, int64_t row,
              int64_t cycle)
{
    PyObject *key = PyLong_FromLongLong(victim);
    if (key == NULL)
        return -1;
    PyObject *boxed = NULL, *max_obj = NULL;
    int rc = -1;
    double level = 0.0;
    PyObject *old = PyDict_GetItemWithError(dist, key);
    if (old != NULL) {
        level = PyFloat_AsDouble(old);
        if (level == -1.0 && PyErr_Occurred())
            goto done;
    }
    else if (PyErr_Occurred())
        goto done;
    level += 1.0;
    if ((boxed = PyFloat_FromDouble(level)) == NULL
        || PyDict_SetItem(dist, key, boxed) < 0
        || (max_obj = PyObject_GetAttr(B->hammer, s_max_disturbance)) == NULL)
        goto done;
    double max_level = PyFloat_AsDouble(max_obj);
    if (max_level == -1.0 && PyErr_Occurred())
        goto done;
    if (level > max_level
        && (PyObject_SetAttr(B->hammer, s_max_disturbance, boxed) < 0
            || PyObject_SetAttr(B->hammer, s_max_disturbance_row, key) < 0))
        goto done;
    if (level >= (double)B->flip_th) {
        PyObject *kwargs = Py_BuildValue(
            "{O:L,O:O,O:O,O:L}", s_cycle, (long long)cycle, s_row, key,
            s_disturbance_kw, boxed, s_aggressor, (long long)row);
        if (kwargs == NULL)
            goto done;
        PyObject *event = PyObject_Call(S->flip_event, empty_tuple, kwargs);
        Py_DECREF(kwargs);
        if (event == NULL)
            goto done;
        PyObject *flips = PyObject_GetAttr(B->hammer, s_flips);
        int appended = flips ? PyList_Append(flips, event) : -1;
        Py_XDECREF(flips);
        Py_DECREF(event);
        PyObject *zero = appended < 0 ? NULL : PyFloat_FromDouble(0.0);
        if (zero == NULL)
            goto done;
        appended = PyDict_SetItem(dist, key, zero);
        Py_DECREF(zero);
        if (appended < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(key);
    Py_XDECREF(boxed);
    Py_XDECREF(max_obj);
    return rc;
}

static int
hammer_activate(Sim *S, Bank *B, int64_t row, int64_t cycle)
{
    PyObject *dist = PyObject_GetAttr(B->hammer, s_disturbance);
    if (dist == NULL)
        return -1;
    int rc = 0;
    if (!PyDict_Check(dist)) {
        PyErr_SetString(PyExc_TypeError, "hammer._disturbance: not a dict");
        rc = -1;
    }
    for (int64_t victim = row - 1; rc == 0 && victim <= row + 1;
         victim += 2)
        if (victim >= 0 && victim < B->hammer_rows)
            rc = hammer_victim(S, B, dist, victim, row, cycle);
    Py_DECREF(dist);
    return rc;
}

/* ------------------------------------------------------------------ */
/* BankController.serve (+ BankTimingModel.serve_access, _on_activated) */
/* ------------------------------------------------------------------ */

static int
on_activated(Sim *S, Bank *B, int64_t row, int64_t start, int precharged)
{
    B->acts += 1;
    if (precharged)
        B->pres += 1;
    if (B->hammer != NULL) {
        if (hammer_activate(S, B, row, start) < 0)
            return -1;
    }
    else if (B->hammer_act != NULL) {
        PyObject *done = call2(B->hammer_act, row, start);
        if (done == NULL)
            return -1;
        Py_DECREF(done);
    }
    PyObject *victims = call2(B->scheme_act, row, start);
    if (victims == NULL)
        return -1;
    int truth = PyObject_IsTrue(victims);
    if (truth > 0 && apply_on_bank(B, s_apply_arr, victims, start) < 0)
        truth = -1;
    Py_DECREF(victims);
    if (truth < 0)
        return -1;
    if (B->has_rfm && B->raa_th > 0) {
        /* RfmIssueLogic.on_activate over RaaCounter.on_activate */
        B->raa_value += 1;
        if (B->raa_value >= B->raa_th) {
            int issue = 1;
            B->raa_value = 0;
            if (B->mrr_gated) {
                B->mrr_reads += 1;
                PyObject *flag = PyObject_CallNoArgs(B->flag);
                if (flag == NULL)
                    return -1;
                int set = PyObject_IsTrue(flag);
                Py_DECREF(flag);
                if (set < 0)
                    return -1;
                if (!set) {
                    B->rfm_elided += 1;
                    issue = 0;
                }
            }
            if (issue) {
                B->rfm_issued += 1;
                if (apply_on_bank(B, s_apply_rfm, NULL, start) < 0)
                    return -1;
            }
        }
    }
    return 0;
}

static int
serve(Sim *S, Bank *B, const Req *req, int64_t cycle, int *row_hit_out,
      int64_t *data_out)
{
    if (cycle >= B->refresh_next) {
        if (apply_on_bank(B, s_advance_refresh, NULL, cycle) < 0
            || attr_i64(B->refresh, s_next_tick, &B->refresh_next) < 0)
            return -1;
    }
    int64_t row = req->row;
    int64_t act_not_before = cycle;
    if (B->throttle != NULL) {
        PyObject *release = call2(B->throttle, row, cycle);
        if (release == NULL)
            return -1;
        int rc = as_i64(release, &act_not_before);
        Py_DECREF(release);
        if (rc < 0)
            return -1;
    }
    int close_after = 0;
    if (B->policy == POLICY_CLOSED)
        close_after = 1;
    else if (B->policy == POLICY_MINIMALIST) {
        int64_t hits =
            (B->has_open && B->open_row == row) ? B->consecutive_hits : 0;
        close_after = 1;
        if (hits < B->burst) {
            for (Py_ssize_t i = 0; i < B->qlen; i++) {
                if (B->queue[i].row == row) {
                    close_after = 0;
                    break;
                }
            }
        }
    }
    /* BankTimingModel.serve_access */
    int64_t start = cycle > B->ready ? cycle : B->ready;
    int64_t column_issue;
    int row_hit, activated = 0, precharged = 0;
    if (B->has_open && B->open_row == row) {
        row_hit = 1;
        column_issue = start;
    }
    else {
        row_hit = 0;
        if (B->has_open) {
            int64_t earliest_pre = B->last_act + B->tras;
            if (earliest_pre > start)
                start = earliest_pre;
            start += B->trp;
            precharged = 1;
            B->pre_count += 1;
        }
        int64_t act_cycle = start > act_not_before ? start : act_not_before;
        int64_t earliest_act = B->last_act + B->trc;
        if (earliest_act > act_cycle)
            act_cycle = earliest_act;
        if (B->faw >= 0) {
            Faw *F = &S->faws[B->faw];
            if (F->len >= F->window) {
                int64_t faw_ready = F->ring[F->head] + F->tfaw;
                if (faw_ready > act_cycle)
                    act_cycle = faw_ready;
            }
            if (F->window > 0) {
                if (F->len < F->window)
                    F->ring[(F->head + F->len++) % F->window] = act_cycle;
                else {
                    F->ring[F->head] = act_cycle;
                    F->head = (F->head + 1) % F->window;
                }
            }
        }
        B->last_act = act_cycle;
        B->act_count += 1;
        activated = 1;
        B->has_open = 1;
        B->open_row = row;
        column_issue = act_cycle + B->trcd;
    }
    int64_t *bus = &S->bus[B->channel];
    int64_t data_start = column_issue + B->tcl;
    if (*bus > data_start)
        data_start = *bus;
    int64_t data_cycle = data_start + B->tbl;
    B->access_count += 1;
    if (close_after) {
        int64_t pre_at = B->last_act + B->tras;
        if (column_issue > pre_at)
            pre_at = column_issue;
        B->ready = pre_at + B->trp;
        B->has_open = 0;
        B->pre_count += 1;
        precharged = 1;
    }
    else
        B->ready = column_issue + B->tbl;
    /* rest of BankController.serve */
    *bus = data_cycle;
    if (row_hit)
        B->consecutive_hits += 1;
    else
        B->consecutive_hits = 1;
    if (req->is_write)
        B->writes += 1;
    else
        B->reads += 1;
    if (activated && on_activated(S, B, row, start, precharged) < 0)
        return -1;
    *row_hit_out = row_hit;
    *data_out = data_cycle;
    return 0;
}

/* ------------------------------------------------------------------ */
/* event handlers                                                      */
/* ------------------------------------------------------------------ */

static int
try_issue(Sim *S, Py_ssize_t core_id, int64_t cycle)
{
    Core *C = &S->cores[core_id];
    /* re-read per call, as the scalar issue path does */
    PyObject **items = PySequence_Fast_ITEMS(C->entries);
    C->total = PySequence_Fast_GET_SIZE(C->entries);
    while (C->index < C->total) {
        if (cycle < C->next_issue)
            return push(S, C->next_issue, EV_ISSUE, core_id);
        PyObject *entry = items[C->index];
        PyObject *flag = PyObject_GetAttr(entry, s_is_write);
        if (flag == NULL)
            return -1;
        int is_write = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (is_write < 0)
            return -1;
        if (!is_write && C->outstanding >= C->mlp) {
            C->stalled = 1;
            return 0;
        }
        int64_t bank_index, row, gap = 0;
        if (attr_i64(entry, s_bank_index, &bank_index) < 0
            || attr_i64(entry, s_row, &row) < 0)
            return -1;
        /* python modulo: non-negative for a positive divisor */
        int64_t flat = bank_index % S->nbanks;
        if (flat < 0)
            flat += S->nbanks;
        /* TraceCore.issue */
        C->index += 1;
        if (is_write)
            C->writes_issued += 1;
        else {
            C->reads_issued += 1;
            C->outstanding += 1;
        }
        if (C->index < C->total
            && attr_i64(items[C->index], s_gap_cycles, &gap) < 0)
            return -1;
        C->next_issue = cycle + (gap > 1 ? gap : 1);
        Bank *B = &S->banks[flat];
        if (B->qlen == B->qcap) {
            Py_ssize_t cap = B->qcap ? 2 * B->qcap : 8;
            Req *grown = PyMem_Realloc(B->queue, cap * sizeof(Req));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            B->queue = grown;
            B->qcap = cap;
        }
        Req *req = &B->queue[B->qlen++];
        req->core = (int32_t)core_id;
        req->arrival = cycle;
        req->row = row;
        req->is_write = is_write;
        B->occupancy[core_id] += 1;
        if (!B->scheduled) {
            B->scheduled = 1;
            if (push(S, B->ready > cycle ? B->ready : cycle, EV_BANK, flat) < 0)
                return -1;
        }
    }
    return 0;
}

/* FrFcfsScheduler.pick / BlissScheduler.pick over released requests;
 * -1 when every candidate is throttled (the scheduler abstains). */
static Py_ssize_t
pick(Sim *S, Bank *B, int64_t cycle, const int64_t *rel)
{
    Sched *sc = &S->scheds[B->sched];
    Py_ssize_t best = -1, best_miss = -1;
    int64_t best_arrival = 0, miss_arrival = 0;
    int best_tier = 4;
    for (Py_ssize_t i = 0; i < B->qlen; i++) {
        const Req *q = &B->queue[i];
        if (rel != NULL && rel[i] > cycle)
            continue;
        int hit = B->has_open && q->row == B->open_row;
        if (sc->bliss) {
            int tier = sc->until[q->core] > cycle ? 2 : 0;
            if (!hit)
                tier += 1;
            if (tier < best_tier
                || (tier == best_tier && q->arrival < best_arrival)) {
                best = i;
                best_tier = tier;
                best_arrival = q->arrival;
            }
        }
        else if (hit) {
            if (best < 0 || q->arrival < best_arrival) {
                best = i;
                best_arrival = q->arrival;
            }
        }
        else if (best_miss < 0 || q->arrival < miss_arrival) {
            best_miss = i;
            miss_arrival = q->arrival;
        }
    }
    if (!sc->bliss && best < 0)
        best = best_miss;
    return best;
}

static int
bank_event(Sim *S, Py_ssize_t flat, int64_t cycle)
{
    Bank *B = &S->banks[flat];
    B->scheduled = 0;
    Py_ssize_t qlen = B->qlen;
    if (!qlen)
        return 0;
    /* throttle_release memo: BankController.throttle_release once per
     * queued request, in queue order, as the scalar pick consults it */
    int64_t *rel = NULL;
    if (B->throttle != NULL) {
        if (qlen > S->rel_cap) {
            int64_t *grown = PyMem_Realloc(S->rel, qlen * sizeof(int64_t));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            S->rel = grown;
            S->rel_cap = qlen;
        }
        rel = S->rel;
        for (Py_ssize_t i = 0; i < qlen; i++) {
            int64_t row = B->queue[i].row;
            if (B->has_open && B->open_row == row) {
                rel[i] = cycle;
                continue;
            }
            PyObject *release = call2(B->throttle, row, cycle);
            if (release == NULL)
                return -1;
            int rc = as_i64(release, &rel[i]);
            Py_DECREF(release);
            if (rc < 0)
                return -1;
        }
    }
    Py_ssize_t index;
    int contended;
    if (qlen == 1) {
        index = 0;
        if (rel != NULL && rel[0] > cycle) {
            B->scheduled = 1;
            return push(S, rel[0] > cycle + 1 ? rel[0] : cycle + 1, EV_BANK,
                        flat);
        }
        contended = 0;
    }
    else {
        index = pick(S, B, cycle, rel);
        if (index < 0) {
            /* abstained: earliest release, oldest on ties (the stock
             * schedulers abstain only when every candidate is
             * throttled, so the chosen one is throttled too) */
            index = 0;
            for (Py_ssize_t i = 1; i < qlen; i++) {
                int64_t r = rel ? rel[i] : 0, best = rel ? rel[index] : 0;
                if (r < best
                    || (r == best
                        && B->queue[i].arrival < B->queue[index].arrival))
                    index = i;
            }
            if (rel != NULL && rel[index] > cycle) {
                B->scheduled = 1;
                return push(S, rel[index] > cycle + 1 ? rel[index] : cycle + 1,
                            EV_BANK, flat);
            }
        }
        contended = qlen > B->occupancy[B->queue[index].core];
    }
    Req req = B->queue[index];
    memmove(&B->queue[index], &B->queue[index + 1],
            (qlen - index - 1) * sizeof(Req));
    B->qlen = qlen - 1;
    B->occupancy[req.core] -= 1;
    int row_hit;
    int64_t data_cycle;
    if (serve(S, B, &req, cycle, &row_hit, &data_cycle) < 0)
        return -1;
    Sched *sc = &S->scheds[B->sched];
    if (sc->bliss && contended) {
        /* BlissScheduler.on_served */
        if (req.core == sc->last_core)
            sc->streak += 1;
        else {
            sc->last_core = req.core;
            sc->streak = 1;
        }
        if (sc->streak >= sc->threshold) {
            sc->until[req.core] = cycle + sc->bl_cycles;
            sc->listed[req.core] = 1;
            sc->streak = 0;
        }
    }
    if (row_hit)
        S->row_hits += 1;
    else
        S->row_misses += 1;
    if (!req.is_write && push(S, data_cycle, EV_COMPLETE, req.core) < 0)
        return -1;
    S->served[req.core] += 1;
    if (data_cycle > S->last_completion[req.core])
        S->last_completion[req.core] = data_cycle;
    if (qlen > 1) {
        B->scheduled = 1;
        return push(S, B->ready > cycle + 1 ? B->ready : cycle + 1, EV_BANK,
                    flat);
    }
    return 0;
}

static int
complete_event(Sim *S, Py_ssize_t core_id, int64_t cycle)
{
    Core *C = &S->cores[core_id];
    C->outstanding -= 1;
    if (C->outstanding < 0) {
        PyErr_Format(PyExc_RuntimeError,
                     "core %zd: read completion without outstanding read",
                     core_id);
        return -1;
    }
    if (C->stalled) {
        C->stalled = 0;
        return try_issue(S, core_id, cycle);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* spec parsing, the loop, final state                                 */
/* ------------------------------------------------------------------ */

static void
sim_free(Sim *S)
{
    if (S->cores != NULL)
        for (Py_ssize_t i = 0; i < S->ncores; i++)
            Py_XDECREF(S->cores[i].entries);
    if (S->banks != NULL)
        for (Py_ssize_t i = 0; i < S->nbanks; i++) {
            PyMem_Free(S->banks[i].queue);
            PyMem_Free(S->banks[i].occupancy);
        }
    if (S->faws != NULL)
        for (Py_ssize_t i = 0; i < S->nfaws; i++)
            PyMem_Free(S->faws[i].ring);
    if (S->scheds != NULL)
        for (Py_ssize_t i = 0; i < S->nscheds; i++) {
            PyMem_Free(S->scheds[i].until);
            PyMem_Free(S->scheds[i].listed);
        }
    PyMem_Free(S->cores);
    PyMem_Free(S->banks);
    PyMem_Free(S->bus);
    PyMem_Free(S->faws);
    PyMem_Free(S->scheds);
    PyMem_Free(S->heap);
    PyMem_Free(S->rel);
    PyMem_Free(S->served);
    PyMem_Free(S->last_completion);
}

static int
expect_tuple(PyObject *obj, Py_ssize_t size, const char *what)
{
    if (!PyTuple_Check(obj) || PyTuple_GET_SIZE(obj) != size) {
        PyErr_Format(PyExc_TypeError, "%s: expected a %zd-tuple", what, size);
        return -1;
    }
    return 0;
}

static void *
zalloc(Py_ssize_t n, size_t size)
{
    void *p = PyMem_Calloc(n > 0 ? n : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* spec = (cores, banks, buses, faws, schedulers, seq, FlipEvent)
 *   core  = (entries, index, outstanding, next_issue, stalled,
 *            reads_issued, writes_issued, mlp)
 *   bank  = (controller, bank, refresh, hammer_on_activate|None,
 *            scheme_on_activate, throttle|None, rfm_needed_flag,
 *            open_row|None, ready, last_act, act_count, pre_count,
 *            access_count, (trp, trcd, tcl, tbl, trc, tras),
 *            consecutive_hits, refresh_next, channel, faw|-1, scheduler,
 *            policy, burst, rfm|None, inline_hammer|None)
 *   rfm   = (rfm_th, mrr_gated, raa_value, issued, elided, mrr_reads)
 *   faw   = (window, tfaw, [recent...])
 *   sched = (is_bliss, threshold, blacklist_cycles, last_core|None,
 *            streak, {core: until})
 */
static int
sim_init(Sim *S, PyObject *spec)
{
    if (expect_tuple(spec, 7, "spec") < 0)
        return -1;
    S->flip_event = PyTuple_GET_ITEM(spec, 6);
    PyObject *cores = PyTuple_GET_ITEM(spec, 0);
    PyObject *banks = PyTuple_GET_ITEM(spec, 1);
    PyObject *buses = PyTuple_GET_ITEM(spec, 2);
    PyObject *faws = PyTuple_GET_ITEM(spec, 3);
    PyObject *scheds = PyTuple_GET_ITEM(spec, 4);
    int64_t seq;
    if (!PyTuple_Check(cores) || !PyTuple_Check(banks) || !PyTuple_Check(buses)
        || !PyTuple_Check(faws) || !PyTuple_Check(scheds)) {
        PyErr_SetString(PyExc_TypeError, "spec fields must be tuples");
        return -1;
    }
    if (item_i64(spec, 5, &seq) < 0)
        return -1;
    S->seq = (uint64_t)seq;
    S->ncores = PyTuple_GET_SIZE(cores);
    S->nbanks = PyTuple_GET_SIZE(banks);
    S->nbus = PyTuple_GET_SIZE(buses);
    S->nfaws = PyTuple_GET_SIZE(faws);
    S->nscheds = PyTuple_GET_SIZE(scheds);
    if (S->nbanks == 0) {
        PyErr_SetString(PyExc_ValueError, "need at least one bank");
        return -1;
    }
    if ((S->cores = zalloc(S->ncores, sizeof(Core))) == NULL
        || (S->banks = zalloc(S->nbanks, sizeof(Bank))) == NULL
        || (S->bus = zalloc(S->nbus, sizeof(int64_t))) == NULL
        || (S->faws = zalloc(S->nfaws, sizeof(Faw))) == NULL
        || (S->scheds = zalloc(S->nscheds, sizeof(Sched))) == NULL
        || (S->served = zalloc(S->ncores, sizeof(int64_t))) == NULL
        || (S->last_completion = zalloc(S->ncores, sizeof(int64_t))) == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < S->ncores; i++) {
        PyObject *t = PyTuple_GET_ITEM(cores, i);
        Core *C = &S->cores[i];
        int64_t index, stalled;
        if (expect_tuple(t, 8, "core") < 0)
            return -1;
        C->entries = PySequence_Fast(PyTuple_GET_ITEM(t, 0),
                                     "trace entries must be a sequence");
        if (C->entries == NULL)
            return -1;
        if (item_i64(t, 1, &index) < 0 || item_i64(t, 2, &C->outstanding) < 0
            || item_i64(t, 3, &C->next_issue) < 0
            || item_i64(t, 4, &stalled) < 0
            || item_i64(t, 5, &C->reads_issued) < 0
            || item_i64(t, 6, &C->writes_issued) < 0
            || item_i64(t, 7, &C->mlp) < 0)
            return -1;
        C->index = (Py_ssize_t)index;
        C->stalled = stalled != 0;
    }
    for (Py_ssize_t i = 0; i < S->nbus; i++)
        if (item_i64(buses, i, &S->bus[i]) < 0)
            return -1;
    for (Py_ssize_t i = 0; i < S->nfaws; i++) {
        PyObject *t = PyTuple_GET_ITEM(faws, i);
        Faw *F = &S->faws[i];
        if (expect_tuple(t, 3, "faw") < 0 || item_i64(t, 0, &F->window) < 0
            || item_i64(t, 1, &F->tfaw) < 0)
            return -1;
        PyObject *recent = PyTuple_GET_ITEM(t, 2);
        if (!PyList_Check(recent) || F->window < 0
            || PyList_GET_SIZE(recent) > F->window) {
            PyErr_SetString(PyExc_ValueError, "faw: bad recent window");
            return -1;
        }
        if ((F->ring = zalloc(F->window, sizeof(int64_t))) == NULL)
            return -1;
        F->len = PyList_GET_SIZE(recent);
        for (Py_ssize_t k = 0; k < F->len; k++)
            if (as_i64(PyList_GET_ITEM(recent, k), &F->ring[k]) < 0)
                return -1;
    }
    for (Py_ssize_t i = 0; i < S->nscheds; i++) {
        PyObject *t = PyTuple_GET_ITEM(scheds, i);
        Sched *sc = &S->scheds[i];
        int64_t bliss;
        if (expect_tuple(t, 6, "scheduler") < 0 || item_i64(t, 0, &bliss) < 0
            || item_i64(t, 1, &sc->threshold) < 0
            || item_i64(t, 2, &sc->bl_cycles) < 0
            || item_i64(t, 4, &sc->streak) < 0)
            return -1;
        sc->bliss = bliss != 0;
        PyObject *last = PyTuple_GET_ITEM(t, 3);
        sc->last_core = -1;
        if (last != Py_None && as_i64(last, &sc->last_core) < 0)
            return -1;
        if ((sc->until = zalloc(S->ncores, sizeof(int64_t))) == NULL
            || (sc->listed = zalloc(S->ncores, 1)) == NULL)
            return -1;
        for (Py_ssize_t c = 0; c < S->ncores; c++)
            sc->until[c] = -1;
        PyObject *listed = PyTuple_GET_ITEM(t, 5), *key, *value;
        Py_ssize_t pos = 0;
        if (!PyDict_Check(listed)) {
            PyErr_SetString(PyExc_TypeError, "scheduler: blacklist dict");
            return -1;
        }
        while (PyDict_Next(listed, &pos, &key, &value)) {
            int64_t core, until;
            if (as_i64(key, &core) < 0 || as_i64(value, &until) < 0)
                return -1;
            if (core >= 0 && core < S->ncores)
                sc->until[core] = until;
        }
    }
    for (Py_ssize_t i = 0; i < S->nbanks; i++) {
        PyObject *t = PyTuple_GET_ITEM(banks, i);
        Bank *B = &S->banks[i];
        int64_t channel, faw, sched, policy;
        if (expect_tuple(t, 23, "bank") < 0)
            return -1;
        B->controller = PyTuple_GET_ITEM(t, 0);
        B->bank = PyTuple_GET_ITEM(t, 1);
        B->refresh = PyTuple_GET_ITEM(t, 2);
        B->hammer_act = none_or(PyTuple_GET_ITEM(t, 3));
        B->scheme_act = PyTuple_GET_ITEM(t, 4);
        B->throttle = none_or(PyTuple_GET_ITEM(t, 5));
        B->flag = PyTuple_GET_ITEM(t, 6);
        B->hammer = none_or(PyTuple_GET_ITEM(t, 22));
        if (B->hammer != NULL
            && (attr_i64(B->hammer, s_rows_per_bank, &B->hammer_rows) < 0
                || attr_i64(B->hammer, s_flip_th, &B->flip_th) < 0))
            return -1;
        PyObject *open_row = PyTuple_GET_ITEM(t, 7);
        B->has_open = open_row != Py_None;
        if (B->has_open && as_i64(open_row, &B->open_row) < 0)
            return -1;
        PyObject *timing = PyTuple_GET_ITEM(t, 13);
        if (item_i64(t, 8, &B->ready) < 0 || item_i64(t, 9, &B->last_act) < 0
            || item_i64(t, 10, &B->act_count) < 0
            || item_i64(t, 11, &B->pre_count) < 0
            || item_i64(t, 12, &B->access_count) < 0
            || expect_tuple(timing, 6, "timing") < 0
            || item_i64(timing, 0, &B->trp) < 0
            || item_i64(timing, 1, &B->trcd) < 0
            || item_i64(timing, 2, &B->tcl) < 0
            || item_i64(timing, 3, &B->tbl) < 0
            || item_i64(timing, 4, &B->trc) < 0
            || item_i64(timing, 5, &B->tras) < 0
            || item_i64(t, 14, &B->consecutive_hits) < 0
            || item_i64(t, 15, &B->refresh_next) < 0
            || item_i64(t, 16, &channel) < 0 || item_i64(t, 17, &faw) < 0
            || item_i64(t, 18, &sched) < 0 || item_i64(t, 19, &policy) < 0
            || item_i64(t, 20, &B->burst) < 0)
            return -1;
        if (channel < 0 || channel >= S->nbus || faw < -1 || faw >= S->nfaws
            || sched < 0 || sched >= S->nscheds) {
            PyErr_SetString(PyExc_ValueError, "bank: index out of range");
            return -1;
        }
        B->channel = (int)channel;
        B->faw = (int)faw;
        B->sched = (int)sched;
        B->policy = (int)policy;
        PyObject *rfm = PyTuple_GET_ITEM(t, 21);
        B->has_rfm = rfm != Py_None;
        if (B->has_rfm) {
            int64_t gated;
            if (expect_tuple(rfm, 6, "rfm") < 0 || item_i64(rfm, 0, &B->raa_th) < 0
                || item_i64(rfm, 1, &gated) < 0
                || item_i64(rfm, 2, &B->raa_value) < 0
                || item_i64(rfm, 3, &B->rfm_issued) < 0
                || item_i64(rfm, 4, &B->rfm_elided) < 0
                || item_i64(rfm, 5, &B->mrr_reads) < 0)
                return -1;
            B->mrr_gated = gated != 0;
        }
        if ((B->occupancy = zalloc(S->ncores, sizeof(int32_t))) == NULL)
            return -1;
    }
    return 0;
}

static PyObject *
sim_state(Sim *S)
{
    PyObject *cores = PyTuple_New(S->ncores);
    PyObject *banks = PyTuple_New(S->nbanks);
    PyObject *buses = PyTuple_New(S->nbus);
    PyObject *faws = PyTuple_New(S->nfaws);
    PyObject *scheds = PyTuple_New(S->nscheds);
    PyObject *served = PyList_New(S->ncores);
    PyObject *last = PyList_New(S->ncores);
    if (!cores || !banks || !buses || !faws || !scheds || !served || !last)
        goto error;
    for (Py_ssize_t i = 0; i < S->ncores; i++) {
        Core *C = &S->cores[i];
        PyObject *t = Py_BuildValue("(nLLiLL)", C->index, (long long)C->outstanding,
                                    (long long)C->next_issue, C->stalled,
                                    (long long)C->reads_issued,
                                    (long long)C->writes_issued);
        PyObject *a = PyLong_FromLongLong(S->served[i]);
        PyObject *b = PyLong_FromLongLong(S->last_completion[i]);
        if (!t || !a || !b) {
            Py_XDECREF(t);
            Py_XDECREF(a);
            Py_XDECREF(b);
            goto error;
        }
        PyTuple_SET_ITEM(cores, i, t);
        PyList_SET_ITEM(served, i, a);
        PyList_SET_ITEM(last, i, b);
    }
    for (Py_ssize_t i = 0; i < S->nbanks; i++) {
        Bank *B = &S->banks[i];
        PyObject *open_row = B->has_open ? PyLong_FromLongLong(B->open_row)
                                         : Py_NewRef(Py_None);
        if (open_row == NULL)
            goto error;
        PyObject *t = Py_BuildValue(
            "(NLLLLLLLLLLLLLL)", open_row, (long long)B->ready,
            (long long)B->last_act, (long long)B->act_count,
            (long long)B->pre_count, (long long)B->access_count,
            (long long)B->consecutive_hits, (long long)B->reads,
            (long long)B->writes, (long long)B->acts, (long long)B->pres,
            (long long)B->raa_value, (long long)B->rfm_issued,
            (long long)B->rfm_elided, (long long)B->mrr_reads);
        if (t == NULL)
            goto error;
        PyTuple_SET_ITEM(banks, i, t);
    }
    for (Py_ssize_t i = 0; i < S->nbus; i++) {
        PyObject *v = PyLong_FromLongLong(S->bus[i]);
        if (v == NULL)
            goto error;
        PyTuple_SET_ITEM(buses, i, v);
    }
    for (Py_ssize_t i = 0; i < S->nfaws; i++) {
        Faw *F = &S->faws[i];
        PyObject *recent = PyList_New(F->len);
        if (recent == NULL)
            goto error;
        for (Py_ssize_t k = 0; k < F->len; k++) {
            PyObject *v = PyLong_FromLongLong(F->ring[(F->head + k) % F->window]);
            if (v == NULL) {
                Py_DECREF(recent);
                goto error;
            }
            PyList_SET_ITEM(recent, k, v);
        }
        PyTuple_SET_ITEM(faws, i, recent);
    }
    for (Py_ssize_t i = 0; i < S->nscheds; i++) {
        Sched *sc = &S->scheds[i];
        PyObject *listed = PyDict_New();
        if (listed == NULL)
            goto error;
        for (Py_ssize_t c = 0; c < S->ncores; c++) {
            if (!sc->listed[c])
                continue;
            PyObject *k = PyLong_FromSsize_t(c);
            PyObject *v = PyLong_FromLongLong(sc->until[c]);
            int rc = (k && v) ? PyDict_SetItem(listed, k, v) : -1;
            Py_XDECREF(k);
            Py_XDECREF(v);
            if (rc < 0) {
                Py_DECREF(listed);
                goto error;
            }
        }
        PyObject *last_core = sc->last_core < 0
                                  ? Py_NewRef(Py_None)
                                  : PyLong_FromLongLong(sc->last_core);
        PyObject *t = last_core ? Py_BuildValue("(NLN)", last_core,
                                                (long long)sc->streak, listed)
                                : NULL;
        if (t == NULL) {
            if (last_core == NULL)
                Py_DECREF(listed);
            goto error;
        }
        PyTuple_SET_ITEM(scheds, i, t);
    }
    return Py_BuildValue("(NNNNNLLKNN)", cores, banks, buses, faws, scheds,
                         (long long)S->row_hits, (long long)S->row_misses,
                         (unsigned long long)S->seq, served, last);
error:
    Py_XDECREF(cores);
    Py_XDECREF(banks);
    Py_XDECREF(buses);
    Py_XDECREF(faws);
    Py_XDECREF(scheds);
    Py_XDECREF(served);
    Py_XDECREF(last);
    return NULL;
}

static PyObject *
drain_run(PyObject *module, PyObject *args)
{
    PyObject *spec, *limit_obj;
    if (!PyArg_ParseTuple(args, "OO:run", &spec, &limit_obj))
        return NULL;
    int64_t limit = INT64_MAX;
    if (limit_obj != Py_None && as_i64(limit_obj, &limit) < 0)
        return NULL;
    Sim S;
    memset(&S, 0, sizeof(S));
    PyObject *state = NULL;
    if (sim_init(&S, spec) < 0)
        goto done;
    /* the initial issue events, one per core, in core order */
    for (Py_ssize_t i = 0; i < S.ncores; i++)
        if (push(&S, 0, EV_ISSUE, i) < 0)
            goto done;
    while (S.heap_n) {
        Event ev = pop(&S);
        if (ev.cycle > limit)
            break;
        int kind = (int)((ev.key >> IDENT_BITS) & 3);
        Py_ssize_t ident = (Py_ssize_t)(ev.key & IDENT_MASK);
        int rc;
        if (kind == EV_BANK)
            rc = bank_event(&S, ident, ev.cycle);
        else if (kind == EV_ISSUE)
            rc = try_issue(&S, ident, ev.cycle);
        else
            rc = complete_event(&S, ident, ev.cycle);
        if (rc < 0)
            goto done;
    }
    state = sim_state(&S);
done:
    sim_free(&S);
    (void)module;
    return state;
}

static PyMethodDef drain_methods[] = {
    {"run", drain_run, METH_VARARGS,
     "run(spec, limit) -> state: drain one system's events in C."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef drain_module = {
    PyModuleDef_HEAD_INIT, "_drain",
    "Native epoch drain of the repro simulator.", -1, drain_methods,
};

PyMODINIT_FUNC
PyInit__drain(void)
{
#define INTERN(var, text)                                                     \
    if ((var = PyUnicode_InternFromString(text)) == NULL)                     \
        return NULL;
    INTERN(s_open_row, "open_row");
    INTERN(s_ready_cycle, "ready_cycle");
    INTERN(s_last_act, "_last_act_cycle");
    INTERN(s_pre_count, "pre_count");
    INTERN(s_next_tick, "next_tick_cycle");
    INTERN(s_bank_index, "bank_index");
    INTERN(s_row, "row");
    INTERN(s_is_write, "is_write");
    INTERN(s_gap_cycles, "gap_cycles");
    INTERN(s_advance_refresh, "advance_refresh");
    INTERN(s_apply_arr, "_apply_arr");
    INTERN(s_apply_rfm, "_apply_rfm");
    INTERN(s_disturbance, "_disturbance");
    INTERN(s_max_disturbance, "max_disturbance");
    INTERN(s_max_disturbance_row, "max_disturbance_row");
    INTERN(s_flips, "flips");
    INTERN(s_cycle, "cycle");
    INTERN(s_aggressor, "aggressor");
    INTERN(s_disturbance_kw, "disturbance");
    INTERN(s_rows_per_bank, "rows_per_bank");
    INTERN(s_flip_th, "flip_th");
    if ((empty_tuple = PyTuple_New(0)) == NULL)
        return NULL;
#undef INTERN
    return PyModule_Create(&drain_module);
}
