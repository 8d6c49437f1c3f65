/* Native cycle kernel for repro.sim.array.ArrayNetwork.
 *
 * An exact transliteration of the timing-wheel engine's per-cycle phases
 * (repro/sim/network.py: _deliver -> _crossbar -> _transmit) over the
 * struct-of-arrays state owned by Python/numpy.  The kernel holds NO
 * private state: every array it touches is a numpy buffer allocated and
 * introspected on the Python side, so observability, routing decisions
 * (load_metric), injection and ejection draining all read and write the
 * same memory.
 *
 * Bit-exactness contract (the reason this is a scalar transliteration and
 * not a blindly vectorized arbiter): every iteration order below mirrors
 * the wheel engine one-to-one --
 *   - routers are visited in activation (insertion) order over the
 *     active-router list as the pass found it, exactly like
 *     `list(self._active_routers)`;
 *   - a router's occupied slots are visited in ring-rotated ascending
 *     order (the wheel's bisect + rotation of its sorted list, here a
 *     walk of the router's slot bitset from rr that wraps around), the
 *     wheel's round-robin;
 *   - routers the crossbar leaves idle drop out of the active-router list
 *     together at the end of the pass, the others keeping their order
 *     (the wheel pops each from its dict as it goes: the same list,
 *     because only delivery appends to it);
 *   - wheel buckets are drained in append order;
 *   - credits are applied before deliveries, deliveries before the
 *     crossbar, the crossbar before transmissions.
 * Grant order pins the RNG draw order of PAR's hop-1 revisions (run before
 * the step: revise_span, or Python's on_arrival per packet), which is the
 * only order-sensitive randomness inside a step.
 *
 * Performance notes (the step is memory-bound: thousands of scattered
 * accesses per cycle at saturation):
 *   - per-packet hot fields are one packed 64-byte record (`pkt`, stride
 *     PK_STRIDE), so a packet touch costs one cache line, not seven;
 *   - ring head/len pairs are interleaved (in_meta/src_meta), as are
 *     the crossbar input budget stamp/count pairs (in_bud);
 *   - the entire grant-time output side of a channel -- ring head/len,
 *     per-VC credits plus cached total, output budget stamp/count,
 *     busy_until, flits_sent -- packs into one line-padded `outrow`
 *     row (output ports map 1:1 onto non-injection channels, so the
 *     per-port budget legally lives per channel), collapsing what used
 *     to be four random lines per grant into one;
 *   - every scalar and pointer the inner loops touch is copied into
 *     locals first -- int64 stores (stamps, counters) may legally alias
 *     the struct's int64 scalar fields, so leaving them behind `s->`
 *     forces reloads on every iteration;
 *   - ring and wheel indices use conditional wrap instead of `%`
 *     (offsets are proven < one full turn), which removes thousands of
 *     integer divisions per cycle.
 *
 * Memory-safety invariants (enforced upstream, checked defensively here;
 * a violated invariant aborts the step with a negative error code instead
 * of corrupting memory):
 *   - delivery/transmit buckets hold at most one entry per channel
 *     (fixed per-channel delay < wheel size);
 *   - credit buckets hold at most `speedup` entries per channel (input
 *     port budget) per source cycle, one source cycle per bucket;
 *   - input rings hold at most buffer_size/packet_size packets (credit
 *     flow control);
 *   - the ejection buffer (drained lazily by Python, many cycles per
 *     drain) holds at most nNodes packets per cycle and is drained
 *     before fewer than nNodes slots remain; an ejected packet's pool id
 *     goes back on the free stack at once, so the pool is sized by what
 *     is inside the network, never by what waits to be drained.
 *
 * Routing decisions live here too (second half of the file): route_span
 * decides one cycle's injections and revise_span one delivery bucket's
 * PAR revisions, both from flat tables (RouteCtx) and the run's own
 * generator, in exactly the order and with exactly the draws of the
 * per-packet Python procedure in repro/sim/routing.py +
 * repro/routing/pathset.py, which stays the reference they are tested
 * against.
 *
 * And so does the cycle loop (end of the file): repro_run advances a run
 * over a whole window -- Bernoulli injection, destinations, source-queue
 * cap, decisions, queueing, revisions, step -- and comes back only when
 * Python has to act (a buffer to grow or drain, destinations of a
 * pattern that is not data, the end of the caller's segment).
 *
 * The kernel is built on demand by repro.sim.array.native with the system
 * C compiler; repro_abi() guards both struct layouts against drift
 * between this file and the ctypes mirrors.
 */

#include <stdint.h>
#include <string.h>

#define REPRO_ARRAYNET_ABI_VERSION 15

/* counters[] indices (shared with Python) */
#define CNT_ACT 0 /* active routers in act_list */
#define CNT_PD 1  /* pending deliveries (packets on wires) */
#define CNT_PC 2  /* pending credit returns */
#define CNT_PT 3  /* channels scheduled on the transmit wheel */
#define CNT_EJ 4   /* packets in the ejection buffer (Python drains) */
#define CNT_FREE 5 /* free packet-record slots on the stack */

/* channel kinds */
#define KIND_SWITCH 0
#define KIND_INJECT 1
#define KIND_EJECT 2

/* A route is four words of a packet's record or queued entry, all
 * references into the route table's images (repro.routing.table.MinImage:
 * `chan`, `ladder_vc`), never a copy: hop h rides channel
 * route_chan[(h < RT_SPLIT ? RT_LEG1 : RT_LEG2) + h] on VC
 * route_vc[RT_LADDER + h].  Each base is shifted back by the hop its row
 * starts at, so a MIN route (one leg), a VLB route (two legs) and a
 * PAR-revised one (the hop taken, then a fresh candidate's legs from
 * hop 1) are read alike, and a decision allocates nothing. */
#define RT_LEG1 0   /* chan base of the hops before RT_SPLIT */
#define RT_LEG2 1   /* chan base of the hops from RT_SPLIT on */
#define RT_SPLIT 2  /* first hop of the second leg (path_hops: one leg) */
#define RT_LADDER 3 /* ladder_vc base */
#define RT_WORDS 4

/* the channel-image index of a route's hop `hop` */
static inline int32_t rt_chan(const int32_t *rt, int32_t hop)
{
    return (hop < rt[RT_SPLIT] ? rt[RT_LEG1] : rt[RT_LEG2]) + hop;
}

/* packed source-queue entry columns (stride SE_STRIDE int32): a queued
 * packet is a plain value record until it enters the network -- only at
 * injection-transmit does the kernel pop a pool pid from the free stack
 * and materialize pkt/pmeta rows.  This keeps the record pool sized by
 * *in-network* occupancy (L2-resident) instead of by the source-queue
 * backlog, which grows into the hundreds of thousands at saturation. */
#define SE_PATH 0 /* path_hops */
#define SE_VC0 1  /* injection VC (vcs[0], or 0 for empty routes) */
#define SE_DST 2
#define SE_REV 3  /* revisable flag */
#define SE_ICYC 4 /* inject cycle */
#define SE_VLB 5  /* used_vlb at inject */
#define SE_ROUTE 6 /* RT_WORDS words: the route */
#define SE_STRIDE 10

/* per-packet meta (stride PM_STRIDE int32), written at network entry
 * (PM_VLB again by a PAR revision), read only at ejection */
#define PM_ICYC 0
#define PM_VLB 1
#define PM_STRIDE 2

/* packed per-packet record columns (stride PK_STRIDE int32) */
#define PK_HOP 0
#define PK_PATH 1 /* path_hops */
#define PK_CVC 2  /* current_vc */
#define PK_DST 3  /* destination node */
#define PK_REV 4  /* revisable flag */
#define PK_ARR 5  /* channel whose buffer the packet occupies, -1 none */
#define PK_ROUTE 6 /* RT_WORDS words: the route */
#define PK_STRIDE 16 /* padded to one 64-byte line */

/* input-queue meta columns (in_meta stride IM_STRIDE int32): besides the
 * ring head/len, each queue caches its head packet's id and crossbar
 * decision (output channel + next VC; HNVC < 0 encodes "ejecting").  The
 * cache collapses the visit-time dependent-load chain
 * meta -> in_buf -> pkt -> route -> output checks into a single meta
 * line plus independent output-side loads.  It is refilled whenever the
 * head changes (delivery into an empty queue, grant pop); a buffered
 * packet's hop/route/VC never change while it waits (PAR revisions run
 * strictly before delivery), so the cache cannot go stale. */
#define IM_HEAD 0
#define IM_LEN 1
#define IM_HPID 2
#define IM_HOUT 3
#define IM_HNVC 4
/* second-head cache: same fields for the packet at ring position
 * head+1, so a grant-pop promotes second -> head with three register
 * moves instead of a ring -> record -> route dependent-load chain; the
 * vacated second slot is refilled in a deferred batched pipeline at the
 * end of the crossbar pass (see crossbar()), where the chain's latency
 * overlaps across every refill of the cycle */
#define IM_H2PID 5
#define IM_H2OUT 6
#define IM_H2NVC 7
#define IM_STRIDE 8

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH_W(addr) __builtin_prefetch((addr), 1)
#define PREFETCH_R(addr) __builtin_prefetch((addr), 0)
#define CTZ64(x) __builtin_ctzll(x)
#else
#define PREFETCH_W(addr)
#define PREFETCH_R(addr)
static int CTZ64(uint64_t x)
{
    int n = 0;
    while (!(x & 1)) {
        x >>= 1;
        n++;
    }
    return n;
}
#endif

typedef struct {
    /* --- static per-channel tables --- */
    const int32_t *ch_latency;
    const int32_t *ch_delay;
    const int32_t *ch_dst_router;
    const int32_t *ch_gslot;    /* dst_router*nSr + dst_slot_base */
    const int32_t *ch_kind;
    /* --- dynamic channel state --- */
    /* [nC][outrow_stride]: ring head, ring len, per-VC credits, credit
     * total, then (8-byte aligned at offset OR_BUD(cs)) four int64s:
     * output budget stamp, output budget count, busy_until, flits_sent
     * -- the full grant-time output-side state of a channel packed into
     * one (padded) cache line instead of four parallel tables */
    int32_t *outrow;
    int32_t *out_buf; /* [nC][out_cap][2]: pid, wire-vc | rev-flag<<16 */
    int32_t *src_buf;  /* [nNodes][src_cap] source-queue pid ring */
    int32_t *src_meta; /* [nNodes][2]: head, len */
    /* --- router state --- */
    int32_t *in_buf;  /* [nR*nSr][in_cap] input-buffer pid ring */
    int32_t *in_meta; /* [nR*nSr][IM_STRIDE]: see IM_* columns */
    /* [nR][ASLOT_WORDS(nSr)]: bitset of the occupied local slots (bit
     * slot & 63 of word slot >> 6) */
    uint64_t *act_slots;
    int32_t *act_len;  /* [nR] bits set in the router's act_slots row */
    /* [nR] activation-ordered active routers (count CNT_ACT): exactly
     * those with act_len > 0, outside the crossbar pass */
    int32_t *act_list;
    int32_t *rr;       /* [nR] round-robin priority */
    int64_t *in_bud;   /* [nR*radix][2]: cycle stamp, used budget */
    int32_t *osnap; /* scratch [nSr]: rotated slot order */
    /* scratch [nR*nSr]: deferred second-head refills (queue, ring pos /
     * pid, route channel) batched at the end of the crossbar pass */
    int32_t *rf_q;
    int32_t *rf_pos;
    int32_t *rf_off;
    /* --- timing wheels: [ws][cap] + per-bucket counts --- */
    int32_t *dw_chan; /* deliveries */
    int32_t *dw_pid;
    int32_t *dw_meta; /* wire VC of the flit in dw_pid */
    int32_t *dw_n;
    int32_t *rev_n;   /* revisable hop-1 deliveries per bucket */
    int32_t *cw_chan; /* credit returns */
    int32_t *cw_vc;
    int32_t *cw_n;
    int32_t *tw_chan; /* transmission starts */
    int32_t *tw_n;
    /* ejection buffer (append-only, count CNT_EJ): the payloads are
     * gathered here (from prefetched lines) so the Python drain consumes
     * flat slices, and nothing of an ejected packet is read from the
     * pool afterwards -- its id is free again the moment it ejects */
    int32_t *ej_cycle; /* [ej_cap] ejection cycle */
    int32_t *ej_lat;   /* [ej_cap] cycle - inject_cycle */
    int32_t *ej_hops;  /* [ej_cap] path_hops */
    int32_t *ej_vlb;   /* [ej_cap] used_vlb */
    /* --- packet records + the route table they refer to --- */
    int32_t *pkt;        /* [cap][PK_STRIDE] */
    int32_t *pmeta;      /* [cap][PM_STRIDE] */
    int32_t *free_stack; /* [cap] LIFO of free pids (count CNT_FREE) */
    const int32_t *route_chan; /* MinImage.chan (RT_LEG1 / RT_LEG2) */
    const int32_t *route_vc;   /* MinImage.ladder_vc (RT_LADDER) */
    int64_t *counters; /* CNT_* above */
    /* --- scalars --- */
    int64_t nR;
    int64_t radix;
    int64_t nV;
    int64_t nSr; /* radix * nV, slots per router */
    int64_t nC;
    int64_t inj_base;
    int64_t ej_base;
    int64_t nNodes;
    int64_t ws; /* wheel size */
    int64_t dw_cap;
    int64_t cw_cap;
    int64_t tw_cap;
    int64_t out_cap;
    int64_t in_cap;
    int64_t src_cap;
    int64_t speedup;
    int64_t psize;
    int64_t cred_stride; /* nV + 1 */
    int64_t ej_cap;
    int64_t outrow_stride; /* OR_BUD(cred_stride)+8, padded to a line */
} State;

/* outrow columns */
#define OR_HEAD 0
#define OR_LEN 1
#define OR_CRED 2 /* cred_stride entries: per-VC credits, then total */
/* even int32 offset of the row's int64 tail: budget stamp, budget
 * count, busy_until, flits_sent (indices 0..3 through an int64 view of
 * the row tail; the int32 and int64 regions never overlap) */
#define OR_BUD(cs) ((2 + (cs) + 1) & ~1)

/* words of a router's active-slot bitset */
#define ASLOT_WORDS(nsr) (((nsr) + 63) >> 6)

/* mark a slot occupied (caller: slot absent) */
static inline void aslot_insert(uint64_t *row, int32_t *alen, int32_t slot)
{
    row[slot >> 6] |= (uint64_t)1 << (slot & 63);
    ++*alen;
}

/* mark a slot empty (caller: slot present) */
static inline void aslot_remove(uint64_t *row, int32_t *alen, int32_t slot)
{
    row[slot >> 6] &= ~((uint64_t)1 << (slot & 63));
    --*alen;
}

/* this bucket's credit returns (idempotent: the bucket is emptied) */
static void apply_credits(State *s, int32_t idx)
{
    const int32_t ncr = s->cw_n[idx];
    if (!ncr)
        return;
    const int32_t cs = (int32_t)s->cred_stride;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t psize = (int32_t)s->psize;
    int32_t *const outrow = s->outrow;
    const int32_t *cc = s->cw_chan + (int64_t)idx * s->cw_cap;
    const int32_t *cv = s->cw_vc + (int64_t)idx * s->cw_cap;
    for (int32_t i = 0; i < ncr; i++) {
        int32_t *row = outrow + (int64_t)cc[i] * ors + OR_CRED;
        row[cv[i]] += psize;
        row[cs - 1] += psize;
    }
    s->cw_n[idx] = 0;
    s->counters[CNT_PC] -= ncr;
}

/* phase 1: credit returns, then wire arrivals into input buffers.
 * skip_credits: the bucket was already applied (PAR revision cycles,
 * where revisions must read post-credit load_metric before the rest of
 * the cycle runs). */
static int64_t deliver(State *s, int64_t cycle, int32_t idx,
                       int64_t skip_credits)
{
    if (!skip_credits)
        apply_credits(s, idx);
    const int32_t nd = s->dw_n[idx];
    if (!nd) {
        s->rev_n[idx] = 0;
        return 0;
    }
    const int32_t *dc = s->dw_chan + (int64_t)idx * s->dw_cap;
    const int32_t *dp = s->dw_pid + (int64_t)idx * s->dw_cap;
    const int32_t *const dm = s->dw_meta + (int64_t)idx * s->dw_cap;
    const int32_t nSr = (int32_t)s->nSr;
    const int32_t in_cap = (int32_t)s->in_cap;
    const int64_t ej_cap = s->ej_cap;
    const int32_t *const ch_kind = s->ch_kind;
    const int32_t *const ch_dst_router = s->ch_dst_router;
    const int32_t *const ch_gslot = s->ch_gslot;
    int32_t *const in_buf = s->in_buf;
    int32_t *const in_meta = s->in_meta;
    const int32_t aw = ASLOT_WORDS(nSr);
    uint64_t *const act_slots = s->act_slots;
    int32_t *const act_lenp = s->act_len;
    int32_t *const act_list = s->act_list;
    int32_t *const ej_cycle = s->ej_cycle;
    int32_t *const ej_lat = s->ej_lat;
    int32_t *const ej_hops = s->ej_hops;
    int32_t *const ej_vlb = s->ej_vlb;
    int32_t *const free_stack = s->free_stack;
    int32_t *const pkt = s->pkt;
    int32_t *const pmeta = s->pmeta;
    const int32_t ej_base = (int32_t)s->ej_base;
    const int32_t *const route_chan = s->route_chan;
    const int32_t *const route_vc = s->route_vc;
    int64_t nact = s->counters[CNT_ACT];
    int64_t nej = s->counters[CNT_EJ];
    int64_t nfree = s->counters[CNT_FREE];
    /* overlap the scattered packet-record and queue-meta misses before
     * the serial pass; the wire VC rides the wheel, so the target slot
     * is known without touching the packet record first */
    for (int32_t i = 0; i < nd; i++) {
        PREFETCH_W(pkt + (int64_t)dp[i] * PK_STRIDE);
        if (ch_kind[dc[i]] == KIND_EJECT)
            PREFETCH_R(pmeta + (int64_t)dp[i] * PM_STRIDE);
        else
            PREFETCH_W(in_meta +
                       (int64_t)(ch_gslot[dc[i]] + dm[i]) * IM_STRIDE);
    }
    for (int32_t i = 0; i < nd; i++) {
        const int32_t c = dc[i];
        const int32_t pid = dp[i];
        if (ch_kind[c] == KIND_EJECT) {
            if (nej >= ej_cap)
                return -1;
            const int32_t *const pm = pmeta + (int64_t)pid * PM_STRIDE;
            ej_cycle[nej] = (int32_t)cycle;
            ej_lat[nej] = (int32_t)cycle - pm[PM_ICYC];
            ej_hops[nej] = pkt[(int64_t)pid * PK_STRIDE + PK_PATH];
            ej_vlb[nej] = pm[PM_VLB];
            nej++;
            free_stack[nfree++] = pid;
            continue;
        }
        /* any PAR revision for this bucket already ran (pre-step) */
        int32_t *const rec = pkt + (int64_t)pid * PK_STRIDE;
        const int32_t r = ch_dst_router[c];
        const int32_t gslot = ch_gslot[c] + dm[i];
        const int32_t lslot = gslot - r * nSr;
        rec[PK_CVC] = dm[i];
        int32_t *const meta = in_meta + (int64_t)gslot * IM_STRIDE;
        const int32_t qlen = meta[IM_LEN];
        if (qlen == 0) {
            /* a router's first occupied slot activates it */
            if (!act_lenp[r])
                act_list[nact++] = r;
            aslot_insert(act_slots + (int64_t)r * aw, act_lenp + r, lslot);
            /* new head: cache its crossbar decision */
            meta[IM_HPID] = pid;
            const int32_t hop = rec[PK_HOP];
            if (hop >= rec[PK_PATH]) {
                meta[IM_HOUT] = ej_base + rec[PK_DST];
                meta[IM_HNVC] = -1;
            } else {
                const int32_t *const rt = rec + PK_ROUTE;
                meta[IM_HOUT] = route_chan[rt_chan(rt, hop)];
                meta[IM_HNVC] = route_vc[rt[RT_LADDER] + hop];
            }
        } else if (qlen == 1) {
            /* arriving packet becomes the second head: cache its
             * decision now, while its record line is already hot */
            meta[IM_H2PID] = pid;
            const int32_t hop = rec[PK_HOP];
            if (hop >= rec[PK_PATH]) {
                meta[IM_H2OUT] = ej_base + rec[PK_DST];
                meta[IM_H2NVC] = -1;
            } else {
                const int32_t *const rt = rec + PK_ROUTE;
                meta[IM_H2OUT] = route_chan[rt_chan(rt, hop)];
                meta[IM_H2NVC] = route_vc[rt[RT_LADDER] + hop];
            }
        }
        if (qlen >= in_cap)
            return -2;
        int32_t pos = meta[IM_HEAD] + qlen;
        if (pos >= in_cap)
            pos -= in_cap;
        in_buf[(int64_t)gslot * in_cap + pos] = pid;
        meta[IM_LEN] = qlen + 1;
        rec[PK_ARR] = c;
    }
    s->dw_n[idx] = 0;
    s->rev_n[idx] = 0;
    s->counters[CNT_PD] -= nd;
    s->counters[CNT_ACT] = nact;
    s->counters[CNT_EJ] = nej;
    s->counters[CNT_FREE] = nfree;
    return 0;
}

/* phase 2: switch allocation + traversal (input buffers -> output
 * queues), with VC allocation and upstream credit returns */
static int64_t crossbar(State *s, int64_t cycle, int32_t idx)
{
    int64_t nact = s->counters[CNT_ACT];
    if (!nact)
        return 0;
    const int32_t ws = (int32_t)s->ws;
    const int32_t nV = (int32_t)s->nV;
    const int32_t cs = (int32_t)s->cred_stride;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t nSr = (int32_t)s->nSr;
    const int32_t radix = (int32_t)s->radix;
    const int32_t in_cap = (int32_t)s->in_cap;
    const int32_t out_cap = (int32_t)s->out_cap;
    const int64_t speedup = s->speedup;
    const int32_t psize = (int32_t)s->psize;
    const int32_t ej_base = (int32_t)s->ej_base;
    const int64_t cw_cap = s->cw_cap;
    const int64_t tw_cap = s->tw_cap;
    const int32_t *const ch_latency = s->ch_latency;
    const int32_t *const route_chan = s->route_chan;
    const int32_t *const route_vc = s->route_vc;
    int32_t *const outrow = s->outrow;
    int32_t *const out_buf = s->out_buf;
    int32_t *const in_buf = s->in_buf;
    int32_t *const in_meta = s->in_meta;
    const int32_t aw = ASLOT_WORDS(nSr);
    uint64_t *const act_slots = s->act_slots;
    int32_t *const act_lenp = s->act_len;
    int32_t *const act_list = s->act_list;
    int32_t *const rrp = s->rr;
    int64_t *const in_bud = s->in_bud;
    const int32_t orb = OR_BUD(cs);
    int32_t *const osnap = s->osnap;
    int32_t *const cw_chan = s->cw_chan;
    int32_t *const cw_vc = s->cw_vc;
    int32_t *const cw_n = s->cw_n;
    int32_t *const tw_chan = s->tw_chan;
    int32_t *const tw_n = s->tw_n;
    int32_t *const pkt = s->pkt;
    int32_t *const rf_q = s->rf_q;
    int32_t *const rf_pos = s->rf_pos;
    int32_t *const rf_off = s->rf_off;
    int32_t nrf = 0;
    /* `for ridx in list(self._active_routers)`: nothing joins the list
     * during the pass and nothing leaves it before its end, so the list
     * is its own snapshot */
    int64_t idle = 0;
    int64_t pc = 0, pt = 0;
    for (int64_t ri = 0; ri < nact; ri++) {
        const int32_t r = act_list[ri];
        uint64_t *const aslots = act_slots + (int64_t)r * aw;
        const int32_t alen = act_lenp[r];
        /* ring rotation: the occupied slots >= rr ascending, then those
         * below it -- the bits of rr's word from rr on, the later words,
         * the earlier ones, then the bits of rr's word below rr */
        const int32_t rrv = rrp[r];
        const int32_t w0 = rrv >> 6;
        const uint64_t from_rr = ~(uint64_t)0 << (rrv & 63);
        int32_t n = 0;
        for (int32_t i = 0; i <= aw && n < alen; i++) {
            const int32_t w = w0 + i < aw ? w0 + i : w0 + i - aw;
            uint64_t bits = aslots[w];
            if (i == 0)
                bits &= from_rr;
            else if (i == aw)
                bits &= ~from_rr;
            while (bits) {
                const int32_t sl = (w << 6) + CTZ64(bits);
                bits &= bits - 1;
                osnap[n++] = sl;
                PREFETCH_W(in_meta + ((int64_t)r * nSr + sl) * IM_STRIDE);
            }
        }
        rrp[r] = (rrv + 1 < nSr) ? rrv + 1 : 0;
        const int64_t pbase = (int64_t)r * radix;
        const int64_t qbase = (int64_t)r * nSr;
        for (int32_t k = 0; k < n; k++) {
            const int32_t slot = osnap[k];
            const int64_t q = qbase + slot;
            int32_t *const qmeta = in_meta + q * IM_STRIDE;
            const int32_t qlen = qmeta[IM_LEN];
            if (!qlen) {
                aslot_remove(aslots, act_lenp + r, slot);
                continue;
            }
            int64_t *const ib = in_bud + (pbase + slot / nV) * 2;
            if (ib[0] != cycle) {
                ib[0] = cycle;
                ib[1] = 0;
            } else if (ib[1] >= speedup)
                continue;
            /* head packet + its decision come straight from the cache */
            const int32_t pid = qmeta[IM_HPID];
            const int32_t out = qmeta[IM_HOUT];
            const int32_t hnvc = qmeta[IM_HNVC];
            /* overlap the grant-time record touch with the output-side
             * budget/queue/credit checks below */
            PREFETCH_W(pkt + (int64_t)pid * PK_STRIDE);
            const int ejecting = hnvc < 0;
            const int32_t nvc = ejecting ? 0 : hnvc;
            int32_t *const orow = outrow + (int64_t)out * ors;
            int64_t *const ob = (int64_t *)(orow + orb);
            if (ob[0] != cycle) {
                ob[0] = cycle;
                ob[1] = 0;
            } else if (ob[1] >= speedup)
                continue;
            const int32_t ol = orow[OR_LEN];
            if (ol >= out_cap)
                continue;
            int32_t *const crow = orow + OR_CRED;
            if (!ejecting && crow[nvc] < psize)
                continue; /* not enough downstream space for the packet */
            /* grant */
            int32_t *const rec = pkt + (int64_t)pid * PK_STRIDE;
            const int32_t hop = rec[PK_HOP];
            const int32_t newhop = ejecting ? hop : hop + 1;
            /* wire meta rides the ring + delivery wheel: low half the
             * VC the flit occupies downstream, bit 16 the "revisable
             * hop-1 delivery" flag, so transmit never loads records */
            const int32_t wmeta =
                nvc | ((rec[PK_REV] && newhop == 1) ? 0x10000 : 0);
            int32_t h = qmeta[IM_HEAD] + 1;
            if (h == in_cap)
                h = 0;
            qmeta[IM_HEAD] = h;
            qmeta[IM_LEN] = qlen - 1;
            if (qlen == 1)
                aslot_remove(aslots, act_lenp + r, slot);
            else {
                /* promote the cached second head; its replacement (ring
                 * position head+1) is refilled in the deferred batch
                 * below, off this visit's critical path */
                qmeta[IM_HPID] = qmeta[IM_H2PID];
                qmeta[IM_HOUT] = qmeta[IM_H2OUT];
                qmeta[IM_HNVC] = qmeta[IM_H2NVC];
                if (qlen >= 3) {
                    int32_t p2 = h + 1;
                    if (p2 >= in_cap)
                        p2 -= in_cap;
                    rf_q[nrf] = (int32_t)q;
                    rf_pos[nrf] = p2;
                    nrf++;
                }
            }
            ib[1] += 1;
            ob[1] += 1;
            /* free the input buffer space: return credits upstream */
            const int32_t arr = rec[PK_ARR];
            if (arr >= 0) {
                int32_t b = idx + ch_latency[arr];
                if (b >= ws)
                    b -= ws;
                const int32_t m = cw_n[b];
                if (m >= cw_cap)
                    return -3;
                cw_chan[b * cw_cap + m] = arr;
                cw_vc[b * cw_cap + m] = rec[PK_CVC];
                cw_n[b] = m + 1;
                pc++;
            }
            if (!ejecting) {
                crow[nvc] -= psize;
                crow[cs - 1] -= psize;
                rec[PK_CVC] = nvc;
                rec[PK_HOP] = newhop;
            }
            if (ol == 0) {
                /* queue was empty: schedule the transmission start */
                int64_t when = ob[2]; /* busy_until, same row */
                if (when < cycle)
                    when = cycle;
                int32_t b = idx + (int32_t)(when - cycle);
                if (b >= ws)
                    b -= ws;
                const int32_t m = tw_n[b];
                if (m >= tw_cap)
                    return -4;
                tw_chan[b * tw_cap + m] = out;
                tw_n[b] = m + 1;
                pt++;
            }
            int32_t pos = orow[OR_HEAD] + ol;
            if (pos >= out_cap)
                pos -= out_cap;
            int32_t *const oslot =
                out_buf + ((int64_t)out * out_cap + pos) * 2;
            oslot[0] = pid;
            oslot[1] = wmeta;
            orow[OR_LEN] = ol + 1;
        }
        idle += !act_lenp[r];
    }
    /* the routers left idle leave the list, the rest keep their order */
    if (idle) {
        int64_t kept = 0;
        for (int64_t ri = 0; ri < nact; ri++) {
            const int32_t r = act_list[ri];
            if (act_lenp[r])
                act_list[kept++] = r;
        }
        nact = kept;
    }
    /* deferred second-head refills: each stage touches every queued
     * refill before any value is consumed, so the ring -> record ->
     * route dependent chain overlaps across the whole cycle's refills
     * instead of stalling each grant (queues are distinct -- a slot is
     * visited at most once per pass -- so order is irrelevant) */
    for (int32_t i = 0; i < nrf; i++)
        PREFETCH_R(in_buf + (int64_t)rf_q[i] * in_cap + rf_pos[i]);
    for (int32_t i = 0; i < nrf; i++) {
        const int32_t npid = in_buf[(int64_t)rf_q[i] * in_cap + rf_pos[i]];
        rf_pos[i] = npid;
        PREFETCH_R(pkt + (int64_t)npid * PK_STRIDE);
    }
    for (int32_t i = 0; i < nrf; i++) {
        const int32_t npid = rf_pos[i];
        const int32_t *const nrec = pkt + (int64_t)npid * PK_STRIDE;
        int32_t *const qm = in_meta + (int64_t)rf_q[i] * IM_STRIDE;
        qm[IM_H2PID] = npid;
        const int32_t nhop = nrec[PK_HOP];
        if (nhop >= nrec[PK_PATH]) {
            qm[IM_H2OUT] = ej_base + nrec[PK_DST];
            qm[IM_H2NVC] = -1;
            rf_off[i] = -1;
        } else {
            /* the ladder is a few cached words; the channel image is
             * not, so its read waits for the last stage */
            const int32_t *const rt = nrec + PK_ROUTE;
            const int32_t noff = rt_chan(rt, nhop);
            rf_off[i] = noff;
            qm[IM_H2NVC] = route_vc[rt[RT_LADDER] + nhop];
            PREFETCH_R(route_chan + noff);
        }
    }
    for (int32_t i = 0; i < nrf; i++) {
        const int32_t noff = rf_off[i];
        if (noff >= 0)
            in_meta[(int64_t)rf_q[i] * IM_STRIDE + IM_H2OUT] = route_chan[noff];
    }
    s->counters[CNT_ACT] = nact;
    s->counters[CNT_PC] += pc;
    s->counters[CNT_PT] += pt;
    return 0;
}

/* phase 3: start the transmissions scheduled for this cycle */
static int64_t transmit(State *s, int64_t cycle, int32_t idx)
{
    const int32_t nt = s->tw_n[idx];
    if (!nt)
        return 0;
    const int32_t ws = (int32_t)s->ws;
    const int32_t cs = (int32_t)s->cred_stride;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t psize = (int32_t)s->psize;
    const int32_t out_cap = (int32_t)s->out_cap;
    const int32_t src_cap = (int32_t)s->src_cap;
    const int64_t inj_base = s->inj_base;
    const int64_t dw_cap = s->dw_cap;
    const int64_t tw_cap = s->tw_cap;
    const int32_t *const ch_kind = s->ch_kind;
    const int32_t *const ch_delay = s->ch_delay;
    int32_t *const outrow = s->outrow;
    const int32_t orb = OR_BUD(cs);
    int32_t *const out_buf = s->out_buf;
    int32_t *const src_buf = s->src_buf;
    int32_t *const pmeta = s->pmeta;
    int32_t *const free_stack = s->free_stack;
    int32_t *const dw_meta = s->dw_meta;
    int32_t *const src_meta = s->src_meta;
    int32_t *const dw_chan = s->dw_chan;
    int32_t *const dw_pid = s->dw_pid;
    int32_t *const dw_n = s->dw_n;
    int32_t *const rev_n = s->rev_n;
    int32_t *const tw_chan = s->tw_chan;
    int32_t *const tw_n = s->tw_n;
    int32_t *const pkt = s->pkt;
    /* in-place bucket iteration is safe: retries land in bucket cycle+1
     * and requeues in cycle+psize, both distinct from idx (ws > psize) */
    const int32_t *const tc = tw_chan + (int64_t)idx * tw_cap;
    /* staged prefetch: each pass overlaps one level of the per-channel
     * meta -> ring slot -> packet record dependent-load chain, so the
     * main pass below runs almost entirely out of cache */
    for (int32_t i = 0; i < nt; i++) {
        const int32_t c = tc[i];
        /* every transmit touches its outrow (ring meta or credits, plus
         * the busy/flits tail); injects additionally pop src_meta */
        PREFETCH_W(outrow + (int64_t)c * ors);
        if (ch_kind[c] == KIND_INJECT)
            PREFETCH_W(src_meta + (int64_t)(c - inj_base) * 2);
    }
    for (int32_t i = 0; i < nt; i++) {
        const int32_t c = tc[i];
        if (ch_kind[c] == KIND_INJECT) {
            const int64_t node = c - inj_base;
            PREFETCH_R(src_buf +
                       (node * src_cap + src_meta[node * 2]) * SE_STRIDE);
        } else
            PREFETCH_R(out_buf +
                       ((int64_t)c * out_cap +
                        outrow[(int64_t)c * ors + OR_HEAD]) *
                           2);
    }
    int64_t pd = 0;
    int32_t retired = 0;
    for (int32_t i = 0; i < nt; i++) {
        const int32_t c = tc[i];
        int32_t pid, rem, wvc, wrev;
        if (ch_kind[c] == KIND_INJECT) {
            /* injection channel: reserve the terminal buffer credit,
             * then materialize the queued entry as a pool record */
            const int64_t node = c - inj_base;
            int32_t *const meta = src_meta + node * 2;
            const int32_t sl = meta[1];
            if (!sl) { /* defensive: drained while scheduled */
                retired++;
                continue;
            }
            const int32_t *const e =
                src_buf + (node * src_cap + meta[0]) * SE_STRIDE;
            const int32_t vc = e[SE_VC0];
            int32_t *const crow = outrow + (int64_t)c * ors + OR_CRED;
            if (crow[vc] < psize) {
                /* terminal buffer full: retry next cycle */
                int32_t b = idx + 1;
                if (b >= ws)
                    b -= ws;
                const int32_t m = tw_n[b];
                if (m >= tw_cap)
                    return -4;
                tw_chan[b * tw_cap + m] = c;
                tw_n[b] = m + 1;
                continue;
            }
            int64_t nfree = s->counters[CNT_FREE];
            if (!nfree) /* Python grows the pool before each step */
                return -6;
            pid = free_stack[--nfree];
            s->counters[CNT_FREE] = nfree;
            crow[vc] -= psize;
            crow[cs - 1] -= psize;
            int32_t *const rec = pkt + (int64_t)pid * PK_STRIDE;
            rec[PK_HOP] = 0;
            rec[PK_PATH] = e[SE_PATH];
            rec[PK_CVC] = vc;
            rec[PK_DST] = e[SE_DST];
            rec[PK_REV] = e[SE_REV];
            rec[PK_ARR] = -1;
            memcpy(rec + PK_ROUTE, e + SE_ROUTE, RT_WORDS * sizeof(int32_t));
            int32_t *const pm = pmeta + (int64_t)pid * PM_STRIDE;
            pm[PM_ICYC] = e[SE_ICYC];
            pm[PM_VLB] = e[SE_VLB];
            wvc = vc;
            wrev = 0;
            int32_t h = meta[0] + 1;
            meta[0] = (h == src_cap) ? 0 : h;
            rem = sl - 1;
            meta[1] = rem;
        } else {
            int32_t *const meta = outrow + (int64_t)c * ors;
            const int32_t ol = meta[1];
            if (!ol) { /* defensive: drained while scheduled */
                retired++;
                continue;
            }
            const int32_t *const oslot =
                out_buf + ((int64_t)c * out_cap + meta[0]) * 2;
            pid = oslot[0];
            const int32_t wmeta = oslot[1];
            wvc = wmeta & 0xffff;
            wrev = wmeta >> 16;
            int32_t h = meta[0] + 1;
            meta[0] = (h == out_cap) ? 0 : h;
            rem = ol - 1;
            meta[1] = rem;
        }
        int64_t *const dyn = (int64_t *)(outrow + (int64_t)c * ors + orb);
        dyn[2] = cycle + psize; /* busy_until */
        dyn[3] += psize;        /* flits_sent */
        int32_t b = idx + ch_delay[c];
        if (b >= ws)
            b -= ws;
        const int32_t m = dw_n[b];
        if (m >= dw_cap)
            return -5;
        dw_chan[b * dw_cap + m] = c;
        dw_pid[b * dw_cap + m] = pid;
        dw_meta[b * dw_cap + m] = wvc;
        dw_n[b] = m + 1;
        /* a revisable packet delivered after its first hop will need its
         * PAR revision before that bucket is drained; the
         * grant stamped that fact into the wire word so the switch path
         * here never loads the packet record */
        rev_n[b] += wrev;
        pd++;
        if (rem) {
            int32_t nb = idx + psize;
            if (nb >= ws)
                nb -= ws;
            const int32_t m2 = tw_n[nb];
            if (m2 >= tw_cap)
                return -4;
            tw_chan[nb * tw_cap + m2] = c;
            tw_n[nb] = m2 + 1;
        } else
            retired++;
    }
    tw_n[idx] = 0;
    s->counters[CNT_PD] += pd;
    s->counters[CNT_PT] -= retired;
    return 0;
}


int64_t repro_step_cycle(State *s, int64_t cycle, int64_t skip_credits)
{
    const int32_t idx = (int32_t)(cycle % s->ws);
    int64_t rc = deliver(s, cycle, idx, skip_credits);
    if (rc)
        return rc;
    rc = crossbar(s, cycle, idx);
    if (rc)
        return rc;
    return transmit(s, cycle, idx);
}

/* ======================================================================
 * Routing decisions
 *
 * Everything a decision does per packet -- the bounded-integer draws,
 * the policy's rejection test, the UGAL-L / UGAL-G / PAR cost
 * comparison -- as reads of flat tables:
 *   - MinImage (repro.routing.table): MIN candidates by switch pair; a
 *     VLB descriptor (mid, slot1, slot2) is two of its slots, and the VC
 *     ladder of a slot's shape (min_off) or of a pair of slot shapes
 *     (combo_off) is a row of ladder_vc.  A route the decision picks is
 *     four words pointing into these (RT_*);
 *   - VlbImage: eligible intermediate groups and link counts per group
 *     pair (uniform descriptor sampling);
 *   - the policy's membership program (repro.routing.pathset.PO_* rows);
 *   - the run's sampling store: per switch pair a row of `pair` plus
 *     blocks of `pool` (sparse-policy reservoir, enumeration handed in
 *     by Python);
 *   - the run's generator, through NumPy's bitgen_t interface: every
 *     draw is the call numpy.random.Generator itself would make
 *     (next_double for random(), next_uint32 under the Lemire rule for
 *     integers(n)), on the same state, so C and Python draws interleave
 *     and the generator ends where the reference leaves it.
 * Python owns every buffer.  A decision that needs more than there is
 * -- pool space, a pair's enumeration, a VC ladder that does
 * not exist -- is rolled back completely and the call returns its index
 * with RouteCtx.status saying what to provide.  The generator cannot be
 * rolled back, so the words a decision draws are kept in a replay ring
 * until the decision completes: re-entering at that index reads them
 * again before it draws anything new.
 * ====================================================================== */

/* what a call came back for (RouteCtx.status; repro_run returns it) */
#define RS_OK 0      /* done: the batch, the bucket, the segment */
#define RS_POOL 2    /* sampling-store pool full */
#define RS_ENUM 4    /* need iter_descriptors of pair fail_a */
#define RS_LADDER 5  /* combo fail_a has no (fail_b: revised) VC ladder */
#define RS_REPLAY 6  /* replay ring full */
#define RS_DRAIN 7   /* ejection buffer needs draining */
#define RS_PACKETS 8 /* packet-record pool may run out this cycle */
#define RS_SOURCE 9  /* a source-queue ring is full */
#define RS_DESTS 10  /* need sample_destinations of srcs[0..nsrc) */

#define NO_TRAFFIC (-1) /* repro.traffic.patterns.NO_TRAFFIC */

/* strategies (repro.sim.strategies) */
#define RK_MIN 0
#define RK_VLB 1
#define RK_UGAL_L 2
#define RK_UGAL_G 3
#define RK_PAR 4

/* membership-program opcodes (repro.routing.pathset.OP_*) */
#define PO_HOP_CLASS 1
#define PO_STRATEGIC 2
#define PO_ORDERED 3
#define PO_KEYS 4
#define PO_CHANNELS 5

/* PathPolicy.sample's constants (repro.routing.pathset) */
#define SAMPLE_ATTEMPTS 128
#define SPARSE_RESERVOIR 256
#define SPARSE_BURST (64 * SPARSE_RESERVOIR)
#define SPARSE_MEMO_MAX 20000

/* per-pair store row (int32 columns) */
#define PS_FLAGS 0
#define PS_ROFF 1  /* reservoir: pool offset, */
#define PS_RLEN 2  /* descriptor count */
#define PS_EOFF 3  /* enumeration (written by Python): pool offset, */
#define PS_ELEN 4  /* descriptor count */
#define PS_STRIDE 5
#define PF_NO_VLB 1    /* the policy offers this pair nothing */
#define PF_RESERVOIR 2 /* PS_ROFF/PS_RLEN are valid */
#define PF_ENUM 4      /* PS_EOFF/PS_ELEN are valid */

/* decision counters */
#define RC_VLB 0        /* decisions that chose the VLB candidate */
#define RC_ATTEMPTS 1   /* uniform descriptor draws tried */
#define RC_ACCEPTS 2    /* ... that the policy accepted */
#define RC_FALLBACK 3   /* picks served from a sparse-policy reservoir */
#define RC_CONSIDERED 4 /* hop-1 arrivals PAR looked at */
#define RC_REVISED 5    /* ... and re-routed */
#define RC_MIN 6        /* decisions that kept the MIN candidate */
#define RC_WORDS 7      /* 32-bit words the decisions consumed */
#define RC_INJECTED 8   /* packets repro_run queued */
#define RC_STALLED 9    /* ... and dropped at a full source queue */
#define RC_LEN 16

/* NumPy's bit generator interface (numpy/random/bitgen.h), as handed
 * out by Generator.bit_generator.ctypes */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* where repro_run is inside RouteCtx.cycle */
#define PH_NEW 0    /* nothing of it done */
#define PH_FILTER 1 /* srcs/dsts hold what was generated */
#define PH_ROUTE 2  /* decisions, from pos */
#define PH_QUEUE 3  /* source-ring appends, from pos */
#define PH_REVISE 4 /* PAR revisions from bucket position pos, then step */

typedef struct {
    /* --- topology + MinImage --- */
    const int32_t *sw_of;  /* [nNodes] */
    const int32_t *grp_of; /* [nsw] */
    const int32_t *mi_k;
    const int64_t *mi_first;
    const int32_t *mi_hops;
    const int64_t *mi_rel;
    const int32_t *mi_chan;
    const int32_t *mi_shape;
    const int32_t *shape_local;
    const int32_t *min_off;   /* [nshapes] */
    const int32_t *combo_off; /* [2][nshapes * nshapes] */
    /* --- VlbImage --- */
    const int32_t *vr_first;
    const int32_t *vr_n;
    const int32_t *vr_group;
    const int32_t *vr_in;
    const int32_t *vr_out;
    const int32_t *grp_sw; /* [ngroups][a] */
    /* --- policy program --- */
    const int64_t *ops; /* [nops][4] */
    const int64_t *keys;
    const uint8_t *mask;
    const int64_t *ex_first; /* by_index: CSR over switch pairs */
    const int32_t *ex_desc;  /* [.][3] */
    /* --- sampling store --- */
    int32_t *pair; /* [nsw * nsw][PS_STRIDE] */
    int32_t *pool;
    /* --- the generator and the current decision's words --- */
    bitgen_t *gen;
    uint32_t *replay; /* [replay_cap] */
    /* --- the run loop: traffic as data, one cycle's scratch --- */
    const int64_t *dest_map; /* [nNodes] fixed destinations, or NULL */
    const uint8_t *ur_mask;  /* [nNodes] nodes that send uniformly, or NULL */
    int64_t *srcs;           /* [nNodes] */
    int64_t *dsts;           /* [nNodes] */
    int32_t *records;        /* [nNodes][SE_STRIDE] */
    /* --- scalars --- */
    int64_t nsw;
    int64_t ngroups;
    int64_t a;
    int64_t nshapes;
    int64_t nops;
    int64_t by_index;
    int64_t key_bound;
    int64_t kind; /* RK_* */
    int64_t threshold;
    int64_t extra_min; /* candidates beyond the first, UGAL family */
    int64_t extra_vlb;
    int64_t credit_cap; /* buffer_size * num_vcs of a switch channel */
    int64_t pool_len;
    int64_t pool_cap;
    int64_t nres; /* reservoirs memoized (SPARSE_MEMO_MAX) */
    int64_t replay_cap;
    int64_t rlen; /* words in the replay ring */
    int64_t rpos; /* ... of which re-read */
    int64_t has_program; /* dest_map / ur_mask / ur_prob say it all */
    int64_t max_queue;   /* source-queue cap */
    int64_t cycle;       /* next cycle to run (repro_run) */
    int64_t phase;       /* PH_* within it */
    int64_t pos;
    int64_t nsrc; /* packets of this cycle in srcs/dsts */
    int64_t status;
    int64_t fail_a;
    int64_t fail_b;
    double load;    /* per-node injection probability */
    double ur_prob; /* per-packet uniform-role probability, < 0: no coin */
    int64_t cnt[RC_LEN];
} RouteCtx;

/* layout guard, compared against the ctypes mirrors before the first
 * call: (version * 10000 + sizeof(RouteCtx)) * 10000 + sizeof(State) */
int64_t repro_abi(void)
{
    return (REPRO_ARRAYNET_ABI_VERSION * 10000 + (int64_t)sizeof(RouteCtx)) *
               10000 +
           (int64_t)sizeof(State);
}

/* numpy's bounded integer below n <= 2**32 (Lemire multiply-shift over
 * next_uint32 words; buffered_bounded_lemire_uint32 in distributions.c);
 * n == 1 consumes nothing.  A source that cannot deliver answers
 * 0xFFFFFFFF, which every bound accepts at once (result n - 1). */
static inline uint32_t bounded(uint64_t n, uint32_t (*word)(void *),
                               void *from)
{
    if (n <= 1)
        return 0;
    uint64_t m = (uint64_t)word(from) * n;
    uint64_t left = m & 0xffffffffu;
    if (left < n) {
        const uint64_t threshold = (((uint64_t)1 << 32) - n) % n;
        while (left < threshold) {
            m = (uint64_t)word(from) * n;
            left = m & 0xffffffffu;
        }
    }
    return (uint32_t)(m >> 32);
}

/* words straight from the generator (destination draws: never undone) */
static uint32_t gen_word(void *from)
{
    bitgen_t *g = (bitgen_t *)from;
    return g->next_uint32(g->state);
}

/* a decision's words: those of its rolled-back attempt first, then new
 * ones, each kept until the decision completes (rc_mark).  On a full
 * ring: RS_REPLAY and the word every bound accepts. */
static uint32_t rc_word(void *from)
{
    RouteCtx *c = (RouteCtx *)from;
    c->cnt[RC_WORDS]++;
    if (c->rpos < c->rlen)
        return c->replay[c->rpos++];
    if (c->rlen >= c->replay_cap) {
        c->status = RS_REPLAY;
        return 0xffffffffu;
    }
    const uint32_t w = c->gen->next_uint32(c->gen->state);
    c->replay[c->rlen++] = w;
    c->rpos = c->rlen;
    return w;
}

#define rc_draw(c, n) bounded((uint64_t)(n), rc_word, (c))

/* test hook for rc_draw: bounds[0..n) as one decision.  Returns n, or
 * -1 with the ring rewound when it filled up (RouteCtx.status); `undo`
 * rewinds a completed one too, as a failed decision would, so that the
 * next call reads the same words again. */
int64_t repro_draw_batch(RouteCtx *c, const int64_t *bounds, int64_t n,
                         int64_t *out, int64_t undo)
{
    if (c->rpos >= c->rlen)
        c->rpos = c->rlen = 0;
    c->status = RS_OK;
    for (int64_t i = 0; i < n && !c->status; i++)
        out[i] = rc_draw(c, bounds[i]);
    if (c->status || undo)
        c->rpos = 0;
    return c->status ? -1 : n;
}

/* repro.routing.pathset._mix, in wrapping 64-bit arithmetic */
static inline uint64_t rc_mix(uint64_t seed, uint64_t src, uint64_t dst,
                              uint64_t mid, uint64_t s1, uint64_t s2)
{
    uint64_t x = seed * 0x9E3779B97F4A7C15ull + src * 0xBF58476D1CE4E5B9ull +
                 dst * 0x94D049BB133111EBull + mid * 0xD6E8FEB86659FD93ull +
                 s1 * 0xA5A5A5A5A5A5A5A5ull + s2 * 0x0123456789ABCDEFull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

typedef struct {
    int32_t mid, s1, s2;
} Desc;

/* a prepared route: hops, the route from hop 0 (RT_*), injection VC,
 * and the MinImage slot (MIN) or shape-pair index (VLB) it came from */
typedef struct {
    int32_t hops, rt[RT_WORDS], vc0, aux;
} Cand;

/* policy.contains(src, dst, desc): every program row must accept */
static int rc_contains(const RouteCtx *c, int32_t src, int32_t dst, Desc d)
{
    const int64_t nsw = c->nsw;
    const int64_t slot1 = c->mi_first[src * nsw + d.mid] + d.s1;
    const int64_t slot2 = c->mi_first[d.mid * nsw + dst] + d.s2;
    const int32_t h1 = c->mi_hops[slot1];
    const int32_t hops = h1 + c->mi_hops[slot2];
    for (int64_t i = 0; i < c->nops; i++) {
        const int64_t *op = c->ops + i * 4;
        switch (op[0]) {
        case PO_HOP_CLASS:
            if (hops <= op[1])
                break;
            if (hops == op[1] + 1 && op[2] > 0 &&
                rc_mix((uint64_t)op[3], src, dst, d.mid, d.s1, d.s2) % 10000 <
                    (uint64_t)op[2])
                break;
            return 0;
        case PO_STRATEGIC:
            if (hops <= 4 || (hops == 5 && h1 == op[1]))
                break;
            return 0;
        case PO_ORDERED:
            if (d.mid <= src || d.mid <= dst)
                return 0;
            if (op[1] < 0 ||
                rc_mix((uint64_t)op[2], src, dst, d.mid, d.s1, d.s2) % 10000 <
                    (uint64_t)op[1])
                break;
            return 0;
        case PO_KEYS: {
            const int64_t b = c->key_bound;
            const int64_t key =
                (((src * nsw + dst) * nsw + d.mid) * b + d.s1) * b + d.s2;
            const int64_t *keys = c->keys + op[1];
            int64_t lo = 0, hi = op[2];
            while (lo < hi) {
                const int64_t at = (lo + hi) >> 1;
                if (keys[at] < key)
                    lo = at + 1;
                else
                    hi = at;
            }
            if ((lo < op[2] && keys[lo] == key) != (op[3] != 0))
                return 0;
            break;
        }
        case PO_CHANNELS: {
            const uint8_t *mask = c->mask + op[1];
            const int32_t *ch = c->mi_chan + c->mi_rel[slot1];
            for (int32_t h = 0; h < h1; h++)
                if (mask[ch[h]])
                    return 0;
            ch = c->mi_chan + c->mi_rel[slot2];
            for (int32_t h = 0; h < hops - h1; h++)
                if (mask[ch[h]])
                    return 0;
            break;
        }
        default:
            return 0;
        }
    }
    return 1;
}

/* test hook for rc_contains: out[i] = membership of descriptor
 * desc[i] = (src, dst, mid, slot1, slot2), which must name a path */
void repro_contains_batch(const RouteCtx *c, int64_t n, const int32_t *desc,
                          uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const int32_t *d = desc + 5 * i;
        const Desc probe = {d[2], d[3], d[4]};
        out[i] = (uint8_t)rc_contains(c, d[0], d[1], probe);
    }
}

/* one uniform descriptor draw of group-pair row gp; 0 when rejected */
static int rc_attempt(RouteCtx *c, int32_t src, int32_t dst, int32_t gp,
                      Desc *out)
{
    c->cnt[RC_ATTEMPTS]++;
    const int32_t e = c->vr_first[gp] + (int32_t)rc_draw(c, c->vr_n[gp]);
    const int32_t m1 = c->vr_in[e], m2 = c->vr_out[e];
    if (m1 == 0 || m2 == 0)
        return 0;
    Desc d;
    d.mid = c->grp_sw[c->vr_group[e] * c->a + rc_draw(c, c->a)];
    d.s1 = (int32_t)rc_draw(c, m1);
    d.s2 = (int32_t)rc_draw(c, m2);
    if (c->status || !rc_contains(c, src, dst, d))
        return 0;
    c->cnt[RC_ACCEPTS]++;
    *out = d;
    return 1;
}

/* PathPolicy.sample / ExplicitPathSet.sample; 0 = no descriptor */
static int rc_sample(RouteCtx *c, int32_t src, int32_t dst, Desc *out)
{
    const int64_t pair = src * c->nsw + dst;
    if (c->by_index) {
        const int64_t lo = c->ex_first[pair];
        const int64_t n = c->ex_first[pair + 1] - lo;
        if (!n)
            return 0;
        const int32_t *d = c->ex_desc + (lo + rc_draw(c, n)) * 3;
        out->mid = d[0];
        out->s1 = d[1];
        out->s2 = d[2];
        return 1;
    }
    const int32_t gp =
        c->grp_of[src] * (int32_t)c->ngroups + c->grp_of[dst];
    if (!c->vr_n[gp])
        return 0;
    for (int i = 0; i < SAMPLE_ATTEMPTS && !c->status; i++)
        if (rc_attempt(c, src, dst, gp, out))
            return 1;
    if (c->status)
        return 0;
    /* sparse policy: a reservoir per pair, filled by a long rejection
     * burst, or -- only when that finds nothing -- from the pair's
     * enumeration, and reused by every later draw */
    int32_t *ps = c->pair + pair * PS_STRIDE;
    const int32_t *res;
    int32_t rl;
    if (ps[PS_FLAGS] & PF_RESERVOIR) {
        res = c->pool + ps[PS_ROFF];
        rl = ps[PS_RLEN];
    } else {
        if (c->pool_len + 3 * SPARSE_RESERVOIR > c->pool_cap) {
            c->status = RS_POOL;
            return 0;
        }
        int32_t *fill = c->pool + c->pool_len;
        rl = 0;
        for (int i = 0; i < SPARSE_BURST && !c->status; i++) {
            Desc d;
            if (rc_attempt(c, src, dst, gp, &d)) {
                fill[3 * rl] = d.mid;
                fill[3 * rl + 1] = d.s1;
                fill[3 * rl + 2] = d.s2;
                if (++rl >= SPARSE_RESERVOIR)
                    break;
            }
        }
        if (!rl && !c->status) {
            if (!(ps[PS_FLAGS] & PF_ENUM)) {
                c->status = RS_ENUM;
                c->fail_a = pair;
                return 0;
            }
            const int32_t *all = c->pool + ps[PS_EOFF];
            for (int32_t seen = 1; seen <= ps[PS_ELEN]; seen++) {
                int32_t at = rl;
                if (rl < SPARSE_RESERVOIR)
                    rl++;
                else if ((at = (int32_t)rc_draw(c, seen)) >=
                         SPARSE_RESERVOIR)
                    continue;
                memcpy(fill + 3 * at, all + 3 * (seen - 1),
                       3 * sizeof(int32_t));
            }
        }
        if (c->status)
            return 0;
        if (c->nres < SPARSE_MEMO_MAX) {
            ps[PS_FLAGS] |= PF_RESERVOIR;
            ps[PS_ROFF] = (int32_t)c->pool_len;
            ps[PS_RLEN] = rl;
            c->pool_len += 3 * rl;
            c->nres++;
        }
        res = fill;
    }
    if (!rl)
        return 0;
    const int32_t *d = res + 3 * rc_draw(c, rl);
    out->mid = d[0];
    out->s1 = d[1];
    out->s2 = d[2];
    c->cnt[RC_FALLBACK]++;
    return 1;
}

/* RoutingAlgorithm._candidate for a sampled descriptor: its two MIN
 * slots on the ladder of their shape pair; 0 when that ladder does not
 * exist (status) */
static int rc_candidate(const State *s, RouteCtx *c, int32_t src,
                        int32_t dst, Desc d, Cand *out)
{
    const int64_t nsw = c->nsw;
    const int64_t slot1 = c->mi_first[src * nsw + d.mid] + d.s1;
    const int64_t slot2 = c->mi_first[d.mid * nsw + dst] + d.s2;
    const int32_t combo =
        c->mi_shape[slot1] * (int32_t)c->nshapes + c->mi_shape[slot2];
    const int32_t ladder = c->combo_off[combo];
    if (ladder < 0) {
        c->status = RS_LADDER;
        c->fail_a = combo;
        c->fail_b = 0;
        return 0;
    }
    const int32_t h1 = c->mi_hops[slot1];
    out->hops = h1 + c->mi_hops[slot2];
    out->rt[RT_LEG1] = (int32_t)c->mi_rel[slot1];
    out->rt[RT_LEG2] = (int32_t)c->mi_rel[slot2] - h1;
    out->rt[RT_SPLIT] = h1;
    out->rt[RT_LADDER] = ladder;
    out->vc0 = s->route_vc[ladder];
    out->aux = combo;
    return 1;
}

/* RoutingAlgorithm.pick_vlb: one fresh VLB candidate of the pair; 0 when
 * the policy offers the pair nothing (remembered: such a pair draws no
 * more), and whenever the pick could not complete (status): callers act
 * on a candidate only when it is the one the reference draws */
static int rc_pick_vlb(const State *s, RouteCtx *c, int32_t src,
                       int32_t dst, Cand *out)
{
    int32_t *ps = c->pair + (src * c->nsw + dst) * PS_STRIDE;
    if (ps[PS_FLAGS] & PF_NO_VLB)
        return 0;
    Desc d;
    const int sampled = rc_sample(c, src, dst, &d);
    if (c->status)
        return 0;
    if (sampled)
        return rc_candidate(s, c, src, dst, d, out);
    ps[PS_FLAGS] |= PF_NO_VLB;
    return 0;
}

/* RoutingAlgorithm.pick_min, as a candidate */
static inline Cand rc_pick_min(const State *s, RouteCtx *c, int64_t pair)
{
    const int64_t slot = c->mi_first[pair] + rc_draw(c, c->mi_k[pair]);
    Cand m;
    m.hops = c->mi_hops[slot];
    m.rt[RT_LEG1] = (int32_t)c->mi_rel[slot];
    m.rt[RT_LEG2] = 0; /* one leg: never read */
    m.rt[RT_SPLIT] = m.hops;
    m.rt[RT_LADDER] = c->min_off[c->mi_shape[slot]];
    m.vc0 = s->route_vc[m.rt[RT_LADDER]];
    m.aux = (int32_t)slot;
    return m;
}

static inline int64_t rc_load(const State *s, const RouteCtx *c, int32_t ch)
{
    const int32_t *row = s->outrow + (int64_t)ch * s->outrow_stride;
    return row[OR_LEN] + c->credit_cap - row[OR_CRED + s->cred_stride - 1];
}

/* the strategy's delay estimate of a candidate (UgalStrategy.cost) */
static inline int64_t rc_cost(const State *s, const RouteCtx *c, Cand p)
{
    const int32_t *chan = s->route_chan;
    if (c->kind != RK_UGAL_G)
        return rc_load(s, c, chan[p.rt[RT_LEG1]]) * p.hops;
    int64_t total = 0;
    for (int32_t h = 0; h < p.hops; h++)
        total += rc_load(s, c, chan[rt_chan(p.rt, h)]);
    return total;
}

/* what a decision may change, so that it can be undone */
typedef struct {
    int64_t pool_len, nres;
    int64_t cnt[RC_LEN];
    int32_t *ps;
    int32_t row[PS_STRIDE];
} Mark;

/* a decision starts: the previous one's words are spent, unless this is
 * the re-entry of one that was rolled back (rpos == 0 < rlen) */
static inline void rc_mark(RouteCtx *c, int32_t *ps, Mark *m)
{
    if (c->rpos >= c->rlen)
        c->rpos = c->rlen = 0;
    m->pool_len = c->pool_len;
    m->nres = c->nres;
    memcpy(m->cnt, c->cnt, sizeof m->cnt);
    m->ps = ps;
    memcpy(m->row, ps, sizeof m->row);
}

static inline void rc_rollback(RouteCtx *c, const Mark *m)
{
    c->rpos = 0;
    c->pool_len = m->pool_len;
    c->nres = m->nres;
    memcpy(c->cnt, m->cnt, sizeof m->cnt);
    memcpy(m->ps, m->row, sizeof m->row);
}

/* Source decisions of one cycle: packets [start, n) of srcs/dsts (node
 * ids, after the source-queue filter), strictly in order, each to one
 * SE_* record of `records`.  Returns n when done, else the index of the
 * decision that could not complete (status says why; nothing of it
 * remains but its words in the replay ring). */
static int64_t route_span(State *s, RouteCtx *c, int64_t start, int64_t n,
                          const int64_t *srcs, const int64_t *dsts,
                          int64_t cycle, int32_t *records)
{
    const int64_t nsw = c->nsw;
    const int kind = (int)c->kind;
    const int ugal = kind >= RK_UGAL_L;
    const int64_t extra_min = ugal ? c->extra_min : 0;
    const int64_t extra_vlb = ugal ? c->extra_vlb : 0;
    c->status = RS_OK;
    for (int64_t i = start; i < n; i++) {
        const int32_t src = c->sw_of[srcs[i]];
        const int32_t dst = c->sw_of[dsts[i]];
        int32_t *rec = records + i * SE_STRIDE;
        memset(rec, 0, SE_STRIDE * sizeof(int32_t));
        rec[SE_DST] = (int32_t)dsts[i];
        rec[SE_ICYC] = (int32_t)cycle;
        if (src == dst) {
            c->cnt[RC_MIN]++; /* empty route, counted as a MIN choice */
            continue;
        }
        const int64_t pair = src * nsw + dst;
        Mark mark;
        rc_mark(c, c->pair + pair * PS_STRIDE, &mark);
        /* draws first, in the reference's order: MIN, VLB, extra MINs,
         * extra VLBs; costs read channel state only, so comparing as
         * the draws arrive equals comparing afterwards */
        Cand pick = rc_pick_min(s, c, pair), vlb;
        int use_vlb = 0;
        const int contested =
            kind != RK_MIN && rc_pick_vlb(s, c, src, dst, &vlb);
        if (contested) {
            if (!ugal)
                use_vlb = 1;
            else {
                int64_t cost_min = rc_cost(s, c, pick);
                int64_t cost_vlb = rc_cost(s, c, vlb);
                for (int64_t e = 0; e < extra_min && !c->status; e++) {
                    const Cand other = rc_pick_min(s, c, pair);
                    const int64_t cost = rc_cost(s, c, other);
                    if (cost < cost_min) {
                        pick = other;
                        cost_min = cost;
                    }
                }
                for (int64_t e = 0; e < extra_vlb && !c->status; e++) {
                    Cand other;
                    if (!rc_pick_vlb(s, c, src, dst, &other))
                        continue;
                    const int64_t cost = rc_cost(s, c, other);
                    if (cost < cost_vlb) {
                        vlb = other;
                        cost_vlb = cost;
                    }
                }
                use_vlb = cost_min > cost_vlb + c->threshold;
            }
        }
        if (c->status) {
            rc_rollback(c, &mark);
            return i;
        }
        if (use_vlb) {
            pick = vlb;
            rec[SE_VLB] = 1;
        } else if (kind == RK_PAR && contested && pick.hops >= 2 &&
                   c->shape_local[c->mi_shape[pick.aux]])
            rec[SE_REV] = 1; /* may re-decide at the second switch */
        c->cnt[use_vlb ? RC_VLB : RC_MIN]++;
        rec[SE_PATH] = pick.hops;
        rec[SE_VC0] = pick.vc0;
        memcpy(rec + SE_ROUTE, pick.rt, sizeof pick.rt);
    }
    return n;
}

/* what is left of a span after a call that got to `at` of `n`, in the
 * resumable protocol: RS_OK, or the status to serve before calling
 * again with the same arguments (RouteCtx.pos is where that resumes) */
static inline int64_t span_status(RouteCtx *c, int64_t at, int64_t n)
{
    c->pos = at < n ? at : 0;
    return at < n ? c->status : RS_OK;
}

/* route_span in the resumable protocol: repro_run's decision phase */
static int64_t repro_route_batch(State *s, RouteCtx *c, int64_t n,
                                 const int64_t *srcs, const int64_t *dsts,
                                 int64_t cycle, int32_t *records)
{
    return span_status(
        c, route_span(s, c, c->pos, n, srcs, dsts, cycle, records), n);
}

/* RoutingAlgorithm.revised_route: the packet of record `rec`, one hop
 * into its route, goes on over candidate `vlb` on PAR's revised ladder
 * (the hop it took keeps its VC, and is never read again); 0 when that
 * ladder does not exist (status), before anything was written */
static int rc_revise_route(RouteCtx *c, int32_t *rec, Cand vlb)
{
    const int32_t ladder =
        c->combo_off[c->nshapes * c->nshapes + vlb.aux];
    if (ladder < 0) {
        c->status = RS_LADDER;
        c->fail_a = vlb.aux;
        c->fail_b = 1;
        return 0;
    }
    int32_t *rt = rec + PK_ROUTE;
    rt[RT_LEG1] = vlb.rt[RT_LEG1] - 1;
    rt[RT_LEG2] = vlb.rt[RT_LEG2] - 1;
    rt[RT_SPLIT] = vlb.rt[RT_SPLIT] + 1;
    rt[RT_LADDER] = ladder - 1;
    rec[PK_PATH] = 1 + vlb.hops;
    return 1;
}

/* PAR's hop-1 revisions of delivery bucket idx (ParStrategy.revise), in
 * delivery order from bucket position `start`: applies the bucket's
 * credit returns first (revisions read post-credit loads; the step then
 * runs with skip_credits), samples through the same store as the
 * source decisions, and moves each packet that revises onto its spliced
 * route.  Returns the bucket length when done, else the position to
 * resume at. */
static int64_t revise_span(State *s, RouteCtx *c, int64_t idx, int64_t start)
{
    apply_credits(s, (int32_t)idx);
    const int32_t n = s->dw_n[idx];
    const int32_t *dc = s->dw_chan + idx * s->dw_cap;
    const int32_t *dp = s->dw_pid + idx * s->dw_cap;
    const int64_t nsw = c->nsw;
    c->status = RS_OK;
    for (int64_t i = start; i < n; i++) {
        int32_t *rec = s->pkt + (int64_t)dp[i] * PK_STRIDE;
        if (!rec[PK_REV] || rec[PK_HOP] != 1)
            continue;
        const int32_t here = s->ch_dst_router[dc[i]];
        const int32_t dst = c->sw_of[rec[PK_DST]];
        Cand vlb;
        if (here != dst) {
            Mark mark;
            rc_mark(c, c->pair + (here * nsw + dst) * PS_STRIDE, &mark);
            if (rc_pick_vlb(s, c, here, dst, &vlb)) {
                /* the remaining MIN route against a fresh VLB path */
                const int64_t cost_min =
                    rc_load(s, c, s->route_chan[rt_chan(rec + PK_ROUTE, 1)]) *
                    (rec[PK_PATH] - 1);
                const int64_t cost_vlb =
                    rc_load(s, c, s->route_chan[vlb.rt[RT_LEG1]]) * vlb.hops;
                if (cost_vlb + c->threshold < cost_min &&
                    rc_revise_route(c, rec, vlb)) {
                    s->pmeta[(int64_t)dp[i] * PM_STRIDE + PM_VLB] = 1;
                    c->cnt[RC_REVISED]++;
                }
            }
            if (c->status) {
                rc_rollback(c, &mark);
                return i;
            }
        }
        rec[PK_REV] = 0;
        c->cnt[RC_CONSIDERED]++;
    }
    s->rev_n[idx] = 0;
    return n;
}

/* revise_span in the resumable protocol: repro_run's revision phase */
static int64_t repro_revise_batch(State *s, RouteCtx *c, int64_t idx)
{
    return span_status(c, revise_span(s, c, idx, c->pos), s->dw_n[idx]);
}

/* Network.inject over arrays: entries [start, n) of `records` (SE_*
 * rows) join the source queues of `nodes`, in order; a queue that was
 * empty goes on the transmit wheel.  Returns n, else the index of the
 * entry whose ring is full (Python doubles the rings), else an
 * invariant code. */
int64_t repro_enqueue(State *s, int64_t start, int64_t n,
                      const int64_t *nodes, const int32_t *records,
                      int64_t cycle)
{
    const int32_t ws = (int32_t)s->ws;
    const int32_t idx = (int32_t)(cycle % ws);
    const int32_t src_cap = (int32_t)s->src_cap;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t orb = OR_BUD((int32_t)s->cred_stride);
    const int64_t tw_cap = s->tw_cap;
    int64_t i = start, pt = 0;
    for (; i < n; i++) {
        const int64_t node = nodes[i];
        int32_t *const meta = s->src_meta + node * 2;
        const int32_t len = meta[1];
        if (len >= src_cap)
            break;
        if (!len) {
            const int64_t ch = s->inj_base + node;
            int64_t when = ((const int64_t *)(s->outrow + ch * ors + orb))[2];
            if (when < cycle)
                when = cycle; /* busy_until, or now */
            int32_t b = idx + (int32_t)(when - cycle);
            if (b >= ws)
                b -= ws;
            const int32_t m = s->tw_n[b];
            if (m >= tw_cap)
                return -4;
            s->tw_chan[b * tw_cap + m] = (int32_t)ch;
            s->tw_n[b] = m + 1;
            pt++;
        }
        int32_t at = meta[0] + len;
        if (at >= src_cap)
            at -= src_cap;
        memcpy(s->src_buf + (node * src_cap + at) * SE_STRIDE,
               records + i * SE_STRIDE, SE_STRIDE * sizeof(int32_t));
        meta[1] = len + 1;
    }
    s->counters[CNT_PT] += pt;
    return i;
}

/* ======================================================================
 * The cycle loop
 *
 * What repro.sim.engine.Run does per cycle on the per-packet reference
 * path -- rng.random(nodes) < load, sample_destinations, the source-
 * queue cap, route_packets, inject, step -- statement for statement and
 * draw for draw, for every cycle of [RouteCtx.cycle, until).
 * ====================================================================== */

/* TrafficPattern.destination_program for srcs[0..nsrc), into dsts:
 * dest_map[src], then the nodes of ur_mask, then -- one coin per packet,
 * all coins before any draw -- those a coin below ur_prob picks, send to
 * a uniform other node.  (UniformRandom / Mixed / TimeMixed
 * .sample_destinations, in their order of draws.  Exported for
 * RouteLane.destinations, which checks programs against samplers.) */
void repro_destinations(RouteCtx *c, int64_t nodes)
{
    enum { UNIFORM = NO_TRAFFIC - 1 };
    bitgen_t *const g = c->gen;
    const int64_t n = c->nsrc;
    const int64_t *const srcs = c->srcs;
    int64_t *const dsts = c->dsts;
    for (int64_t i = 0; i < n; i++) {
        if (c->ur_mask && c->ur_mask[srcs[i]])
            dsts[i] = UNIFORM;
        else
            dsts[i] = c->dest_map ? c->dest_map[srcs[i]] : NO_TRAFFIC;
    }
    if (c->ur_prob >= 0.0)
        for (int64_t i = 0; i < n; i++)
            if (g->next_double(g->state) < c->ur_prob)
                dsts[i] = UNIFORM;
    for (int64_t i = 0; i < n; i++)
        if (dsts[i] == UNIFORM) {
            /* uniform over the other nodes: skip the source itself */
            const int64_t d = bounded((uint64_t)(nodes - 1), gen_word, g);
            dsts[i] = d + (d >= srcs[i]);
        }
}

/* Advance the run to cycle `until`.  Returns RS_OK there, an invariant
 * code (< 0), or what Python must do before calling again with the same
 * arguments (RS_*); RouteCtx.cycle / phase / pos say where it stopped,
 * and the call resumes exactly there. */
int64_t repro_run(State *s, RouteCtx *c, int64_t until)
{
    bitgen_t *const g = c->gen;
    const int64_t nodes = s->nNodes;
    int64_t *const srcs = c->srcs;
    int64_t *const dsts = c->dsts;
    while (c->cycle < until) {
        const int64_t cycle = c->cycle;
        int64_t at, rc;
        switch (c->phase) {
        case PH_NEW:
            /* at most one packet per node ejects, and one enters the
             * network, per cycle */
            if (s->counters[CNT_EJ] + nodes > s->ej_cap)
                return RS_DRAIN;
            if (s->counters[CNT_FREE] < nodes)
                return RS_PACKETS;
            at = 0;
            if (c->load > 0.0)
                for (int64_t node = 0; node < nodes; node++)
                    if (g->next_double(g->state) < c->load)
                        srcs[at++] = node;
            c->nsrc = at;
            c->phase = PH_FILTER;
            if (c->nsrc) {
                if (!c->has_program)
                    return RS_DESTS;
                repro_destinations(c, nodes);
            }
            /* fall through */
        case PH_FILTER: {
            /* the cap applies after the destination draws */
            int64_t kept = 0, live = 0;
            for (int64_t i = 0; i < c->nsrc; i++) {
                if (dsts[i] == NO_TRAFFIC)
                    continue;
                live++;
                if (s->src_meta[srcs[i] * 2 + 1] >= c->max_queue)
                    continue;
                srcs[kept] = srcs[i];
                dsts[kept++] = dsts[i];
            }
            c->nsrc = kept;
            c->cnt[RC_INJECTED] += kept;
            c->cnt[RC_STALLED] += live - kept;
            c->pos = 0;
            c->phase = PH_ROUTE;
        }
            /* fall through */
        case PH_ROUTE:
            rc = repro_route_batch(s, c, c->nsrc, srcs, dsts, cycle,
                                   c->records);
            if (rc)
                return rc;
            c->phase = PH_QUEUE;
            /* fall through */
        case PH_QUEUE:
            at = repro_enqueue(s, c->pos, c->nsrc, srcs, c->records, cycle);
            if (at < 0)
                return at;
            if (at < c->nsrc) {
                c->pos = at;
                return RS_SOURCE;
            }
            c->pos = 0;
            c->phase = PH_REVISE;
            /* fall through */
        default: { /* PH_REVISE */
            const int64_t idx = cycle % s->ws;
            /* rev_n stays set until the bucket's last revision is in */
            const int64_t revising = s->rev_n[idx] != 0;
            if (revising && (rc = repro_revise_batch(s, c, idx)))
                return rc;
            if ((rc = repro_step_cycle(s, cycle, revising)))
                return rc;
            c->phase = PH_NEW;
            c->cycle = cycle + 1;
        }
        }
    }
    return RS_OK;
}
