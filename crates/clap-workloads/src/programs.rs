//! The DSL sources of the eleven evaluated workloads.
//!
//! Each models the sharing structure and the bug of the corresponding
//! subject in the paper's evaluation (§6), scaled to interpreter-friendly
//! sizes. See DESIGN.md's workload table for the mapping.

/// sim_race — the simple racey program of \[16\]: several workers hammer two
/// shared counters with unprotected read-modify-writes.
pub fn sim_race() -> String {
    r#"
    global int x = 0;
    global int y = 0;

    fn w() {
        let a: int = x;
        yield;
        x = a + 1;
        let b: int = y;
        yield;
        y = b + 1;
    }

    fn main() {
        let t1: thread = fork w();
        let t2: thread = fork w();
        let t3: thread = fork w();
        let t4: thread = fork w();
        join t1; join t2; join t3; join t4;
        assert(x == 4 && y == 4, "sim_race: lost update");
    }
    "#
    .to_owned()
}

/// pbzip2 — the order-violation bug: the main thread "destroys" the queue
/// mutex (modelled by the `mu_valid` flag) while consumer threads still
/// use it.
pub fn pbzip2(blocks_per_consumer: u32) -> String {
    let n = blocks_per_consumer;
    let total = 2 * n;
    format!(
        r#"
    global int queue[8];
    global int head = 0;
    global int tail = 0;
    global int mu_valid = 1;
    mutex m;
    cond notempty;

    fn consumer(n: int) {{
        let i: int = 0;
        while (i < n) {{
            let ok: int = mu_valid;
            assert(ok == 1, "pbzip2: mutex destroyed while consumers are using it");
            lock(m);
            while (head == tail) {{ wait(notempty, m); }}
            let v: int = queue[head & 7];
            head = head + 1;
            unlock(m);
            i = i + v - v + 1;
        }}
    }}

    fn main() {{
        let c1: thread = fork consumer({n});
        let c2: thread = fork consumer({n});
        let i: int = 0;
        while (i < {total}) {{
            lock(m);
            queue[tail & 7] = i + 1;
            tail = tail + 1;
            signal(notempty);
            unlock(m);
            i = i + 1;
        }}
        mu_valid = 0;
        join c1;
        join c2;
    }}
    "#
    )
}

/// aget — unsynchronized progress accounting across downloader threads.
pub fn aget(chunks: u32) -> String {
    let expected = 3 * chunks * 100;
    format!(
        r#"
    global int bwritten = 0;
    global int offsets[4];

    fn dl(id: int, n: int) {{
        let i: int = 0;
        while (i < n) {{
            let b: int = bwritten;
            yield;
            bwritten = b + 100;
            offsets[id & 3] = i * 100;
            i = i + 1;
        }}
    }}

    fn main() {{
        let d1: thread = fork dl(1, {chunks});
        let d2: thread = fork dl(2, {chunks});
        let d3: thread = fork dl(3, {chunks});
        join d1; join d2; join d3;
        assert(bwritten == {expected}, "aget: progress counter lost an update");
    }}
    "#
    )
}

/// bbuf — a bounded buffer whose consumer uses `if` instead of `while`
/// around the cond wait: a woken consumer can find the buffer already
/// drained by a sibling that never slept.
pub fn bbuf() -> String {
    r#"
    global int buf[4];
    global int count = 0;
    mutex m;
    cond notempty;
    cond notfull;

    fn producer(n: int) {
        let i: int = 0;
        while (i < n) {
            lock(m);
            while (count == 4) { wait(notfull, m); }
            buf[count & 3] = i + 1;
            count = count + 1;
            signal(notempty);
            unlock(m);
            i = i + 1;
        }
    }

    fn consumer() {
        lock(m);
        if (count == 0) { wait(notempty, m); }
        let c: int = count;
        assert(c > 0, "bbuf: woken consumer found an empty buffer");
        count = c - 1;
        signal(notfull);
        unlock(m);
    }

    fn main() {
        let c1: thread = fork consumer();
        let c2: thread = fork consumer();
        let p: thread = fork producer(1);
        join p;
        lock(m);
        count = count + 1;
        signal(notempty);
        unlock(m);
        join c1;
        join c2;
    }
    "#
    .to_owned()
}

/// swarm — parallel sort: workers sort disjoint chunks of a shared array,
/// then race on the shared completion counter.
pub fn swarm(chunk: u32) -> String {
    let len = 2 * chunk;
    format!(
        r#"
    global int data[{len}];
    global int nfinished = 0;

    fn sort_chunk(base: int, len: int) {{
        let i: int = 0;
        while (i < len) {{
            let j: int = 0;
            while (j < len - 1) {{
                let a: int = data[base + j];
                let b: int = data[base + j + 1];
                if (a > b) {{
                    data[base + j] = b;
                    data[base + j + 1] = a;
                }}
                j = j + 1;
            }}
            i = i + 1;
        }}
        let nf: int = nfinished;
        yield;
        nfinished = nf + 1;
    }}

    fn main() {{
        let i: int = 0;
        while (i < {len}) {{
            data[i] = {len} - i;
            i = i + 1;
        }}
        let w1: thread = fork sort_chunk(0, {chunk});
        let w2: thread = fork sort_chunk({chunk}, {chunk});
        join w1;
        join w2;
        assert(nfinished == 2, "swarm: completion counter raced");
    }}
    "#
    )
}

/// pfscan — a parallel scanner pulling work items off a locked queue and
/// racing on the shared `matches` counter.
pub fn pfscan(items: u32) -> String {
    let half = items / 2;
    format!(
        r#"
    global int work[{items}];
    global int next = 0;
    global int matches = 0;
    mutex m;

    fn scanner() {{
        let going: int = 1;
        while (going == 1) {{
            lock(m);
            let i: int = next;
            if (i >= {items}) {{
                unlock(m);
                going = 0;
            }} else {{
                next = i + 1;
                unlock(m);
                let v: int = work[i];
                if (v == 1) {{
                    let mm: int = matches;
                    yield;
                    matches = mm + 1;
                }}
            }}
        }}
    }}

    fn main() {{
        let i: int = 0;
        while (i < {items}) {{
            if (i % 2 == 0) {{ work[i] = 1; }} else {{ work[i] = 0; }}
            i = i + 1;
        }}
        let s1: thread = fork scanner();
        let s2: thread = fork scanner();
        join s1;
        join s2;
        assert(matches == {half}, "pfscan: match counter raced");
    }}
    "#
    )
}

/// apache — bug #45605's multi-variable atomicity violation between
/// listeners and workers on the shared queue bookkeeping.
pub fn apache(items_per_listener: u32, workers: u32) -> String {
    assert!((2..=3).contains(&workers), "model supports 2-3 workers");
    let per_worker = (2 * items_per_listener) / workers;
    let w3 = if workers == 3 {
        format!("let w3: thread = fork worker({per_worker});\n        ")
    } else {
        String::new()
    };
    let j3 = if workers == 3 {
        "join w3;\n        "
    } else {
        ""
    };
    format!(
        r#"
    global int queue_len = 0;
    global int idlers = 0;
    mutex m;
    cond more;

    fn listener(n: int) {{
        let i: int = 0;
        while (i < n) {{
            lock(m);
            queue_len = queue_len + 1;
            signal(more);
            unlock(m);
            i = i + 1;
        }}
    }}

    fn worker(n: int) {{
        let i: int = 0;
        while (i < n) {{
            lock(m);
            idlers = idlers + 1;
            while (queue_len == 0) {{ wait(more, m); }}
            idlers = idlers - 1;
            unlock(m);
            let q: int = queue_len;
            yield;
            queue_len = q - 1;
            i = i + 1;
        }}
    }}

    fn main() {{
        let l1: thread = fork listener({items_per_listener});
        let l2: thread = fork listener({items_per_listener});
        let w1: thread = fork worker({per_worker});
        let w2: thread = fork worker({per_worker});
        {w3}join l1;
        join l2;
        join w1;
        join w2;
        {j3}let q: int = queue_len;
        let id: int = idlers;
        assert(q == 0 && id == 0, "apache: queue bookkeeping corrupted");
    }}
    "#
    )
}

/// racey — the deterministic-replay stress benchmark \[38\]: threads mix a
/// shared signature array at data-dependent indices; the final signature
/// is extremely schedule-sensitive. `expected` is the signature of the
/// recorded buggy run's *absence* — the assert compares against the value
/// a reference (serial) execution computes so racy interleavings fail it.
pub fn racey(iters: u32, expected: i64) -> String {
    format!(
        r#"
    global int sig[8];
    global int started = 0;

    fn mix(id: int, iters: int) {{
        started = started + 1;
        let i: int = 0;
        while (i < iters) {{
            let a: int = sig[i & 7];
            let b: int = sig[(i + id) & 7];
            sig[(a + b) & 7] = a + b * 31 + id;
            i = i + 1;
        }}
    }}

    fn main() {{
        let i: int = 0;
        while (i < 8) {{
            sig[i] = i + 1;
            i = i + 1;
        }}
        let t1: thread = fork mix(1, {iters});
        let t2: thread = fork mix(2, {iters});
        join t1;
        join t2;
        let s: int = 0;
        i = 0;
        while (i < 8) {{
            let v: int = sig[i];
            s = s * 17 + v;
            i = i + 1;
        }}
        assert(s == {expected}, "racey: schedule-dependent signature diverged");
    }}
    "#
    )
}

/// The racey skeleton with a placeholder signature; used to compute the
/// reference signature before baking it in via [`racey`].
pub fn racey_reference(iters: u32) -> String {
    racey(iters, 0)
}

/// dekker — Dekker's mutual-exclusion algorithm: correct under SC, broken
/// by store buffering under TSO/PSO. Each thread enters the critical
/// section `iters` times and increments an unprotected counter there.
pub fn dekker(iters: u32) -> String {
    let expected = 2 * iters;
    format!(
        r#"
    global int flag0 = 0;
    global int flag1 = 0;
    global int turn = 0;
    global int counter = 0;

    fn t0(iters: int) {{
        let i: int = 0;
        while (i < iters) {{
            flag0 = 1;
            while (flag1 == 1) {{
                if (turn != 0) {{
                    flag0 = 0;
                    while (turn != 0) {{ yield; }}
                    flag0 = 1;
                }} else {{ yield; }}
            }}
            let c: int = counter;
            counter = c + 1;
            turn = 1;
            flag0 = 0;
            i = i + 1;
        }}
    }}

    fn t1(iters: int) {{
        let i: int = 0;
        while (i < iters) {{
            flag1 = 1;
            while (flag0 == 1) {{
                if (turn != 1) {{
                    flag1 = 0;
                    while (turn != 1) {{ yield; }}
                    flag1 = 1;
                }} else {{ yield; }}
            }}
            let c: int = counter;
            counter = c + 1;
            turn = 0;
            flag1 = 0;
            i = i + 1;
        }}
    }}

    fn main() {{
        let a: thread = fork t0({iters});
        let b: thread = fork t1({iters});
        join a;
        join b;
        assert(counter == {expected}, "dekker: mutual exclusion violated");
    }}
    "#
    )
}

/// peterson — Peterson's algorithm, same failure mode as Dekker under
/// relaxed memory.
pub fn peterson(iters: u32) -> String {
    let expected = 2 * iters;
    format!(
        r#"
    global int flag0 = 0;
    global int flag1 = 0;
    global int victim = 0;
    global int counter = 0;

    fn t0(iters: int) {{
        let i: int = 0;
        while (i < iters) {{
            flag0 = 1;
            victim = 0;
            while (flag1 == 1 && victim == 0) {{ yield; }}
            let c: int = counter;
            counter = c + 1;
            flag0 = 0;
            i = i + 1;
        }}
    }}

    fn t1(iters: int) {{
        let i: int = 0;
        while (i < iters) {{
            flag1 = 1;
            victim = 1;
            while (flag0 == 1 && victim == 1) {{ yield; }}
            let c: int = counter;
            counter = c + 1;
            flag1 = 0;
            i = i + 1;
        }}
    }}

    fn main() {{
        let a: thread = fork t0({iters});
        let b: thread = fork t1({iters});
        join a;
        join b;
        assert(counter == {expected}, "peterson: mutual exclusion violated");
    }}
    "#
    )
}

/// bakery — Lamport's bakery algorithm with `workers` participants, each
/// entering the critical section once. The unfenced ticket publication
/// breaks under store buffering.
pub fn bakery(workers: u32) -> String {
    assert!((2..=4).contains(&workers));
    let forks: String = (0..workers)
        .map(|i| format!("let w{i}: thread = fork worker({i});\n        "))
        .collect();
    let joins: String = (0..workers)
        .map(|i| format!("join w{i};\n        "))
        .collect();
    format!(
        r#"
    global int choosing[{workers}];
    global int number[{workers}];
    global int counter = 0;

    fn worker(id: int) {{
        choosing[id] = 1;
        let max: int = 0;
        let j: int = 0;
        while (j < {workers}) {{
            let nj: int = number[j];
            if (nj > max) {{ max = nj; }}
            j = j + 1;
        }}
        number[id] = max + 1;
        choosing[id] = 0;
        j = 0;
        while (j < {workers}) {{
            if (j != id) {{
                while (choosing[j] == 1) {{ yield; }}
                let waiting: int = 1;
                while (waiting == 1) {{
                    let nj: int = number[j];
                    if (nj == 0) {{ waiting = 0; }} else {{
                        let ni: int = number[id];
                        if (nj > ni) {{ waiting = 0; }} else {{
                            if (nj == ni && j > id) {{ waiting = 0; }} else {{ yield; }}
                        }}
                    }}
                }}
            }}
            j = j + 1;
        }}
        let c: int = counter;
        counter = c + 1;
        number[id] = 0;
    }}

    fn main() {{
        {forks}{joins}assert(counter == {workers}, "bakery: mutual exclusion violated");
    }}
    "#
    )
}

/// figure2 — the paper's running example (Figure 2), reconstructed in
/// spirit: two threads over `x` and `y`; `assert1` is violable by an SC
/// interleaving, while `assert2` requires the PSO write reordering of the
/// two stores in `t1`.
pub fn figure2() -> String {
    r#"
    global int x = 0;
    global int y = 0;

    fn t1() {
        let a: int = x;
        y = a + 1;
        let b: int = y;
        if (b > 0) {
            x = b + 1;
            y = b;
        }
    }

    fn t2() {
        let c: int = x;
        if (c > 0) {
            y = c + 1;
            x = c;
        }
        let d: int = x;
        let e: int = y;
        assert(d <= e + 1, "assert2: needs PSO write reordering");
    }

    fn main() {
        let u: thread = fork t1();
        let v: thread = fork t2();
        join u;
        join v;
        let fx: int = x;
        let fy: int = y;
        assert(fx + fy < 5, "assert1: SC interleaving");
    }
    "#
    .to_owned()
}

/// A heavier sim_race for overhead measurement: each worker performs
/// `iters` iterations of eight unprotected shared accesses.
pub fn sim_race_heavy(iters: u32) -> String {
    format!(
        r#"
    global int x = 0;
    global int y = 0;

    fn w(iters: int) {{
        let i: int = 0;
        while (i < iters) {{
            let a: int = x;
            x = a + 1;
            let b: int = y;
            y = b + 1;
            let c: int = x;
            x = c + 1;
            let d: int = y;
            y = d + 1;
            i = i + 1;
        }}
    }}

    fn main() {{
        let t1: thread = fork w({iters});
        let t2: thread = fork w({iters});
        let t3: thread = fork w({iters});
        let t4: thread = fork w({iters});
        join t1; join t2; join t3; join t4;
    }}
    "#
    )
}

/// A correct bounded buffer (while-based waits) sized for overhead
/// measurement: one producer and two consumers stream `n` items.
pub fn bbuf_heavy(n: u32) -> String {
    let half = n / 2;
    format!(
        r#"
    global int buf[4];
    global int count = 0;
    global int consumed = 0;
    mutex m;
    cond notempty;
    cond notfull;

    fn producer(n: int) {{
        let i: int = 0;
        while (i < n) {{
            lock(m);
            while (count == 4) {{ wait(notfull, m); }}
            buf[count & 3] = i + 1;
            count = count + 1;
            signal(notempty);
            unlock(m);
            i = i + 1;
        }}
    }}

    fn consumer(n: int) {{
        let i: int = 0;
        while (i < n) {{
            lock(m);
            while (count == 0) {{ wait(notempty, m); }}
            count = count - 1;
            consumed = consumed + 1;
            signal(notfull);
            unlock(m);
            i = i + 1;
        }}
    }}

    fn main() {{
        let c1: thread = fork consumer({half});
        let c2: thread = fork consumer({half});
        let p: thread = fork producer({n});
        join p;
        join c1;
        join c2;
    }}
    "#
    )
}

/// A heavier racey mix (four mixes per iteration) for overhead
/// measurement; the placeholder signature means the final assert fires,
/// which does not matter for timing.
pub fn racey_heavy(iters: u32) -> String {
    format!(
        r#"
    global int sig[8];

    fn mix(id: int, iters: int) {{
        let i: int = 0;
        while (i < iters) {{
            let a: int = sig[i & 7];
            let b: int = sig[(i + id) & 7];
            sig[(a + b) & 7] = a + b * 31 + id;
            let c: int = sig[(i + 1) & 7];
            let d: int = sig[(i + id + 1) & 7];
            sig[(c + d) & 7] = c + d * 29 + id;
            let e: int = sig[(i + 2) & 7];
            let f: int = sig[(i + id + 2) & 7];
            sig[(e + f) & 7] = e + f * 23 + id;
            let g: int = sig[(i + 3) & 7];
            let h: int = sig[(i + id + 3) & 7];
            sig[(g + h) & 7] = g + h * 19 + id;
            i = i + 1;
        }}
    }}

    fn main() {{
        let i: int = 0;
        while (i < 8) {{
            sig[i] = i + 1;
            i = i + 1;
        }}
        let t1: thread = fork mix(1, {iters});
        let t2: thread = fork mix(2, {iters});
        join t1;
        join t2;
    }}
    "#
    )
}

/// chan_lost_close — the minimal lost-close race: main closes the
/// channel while the producer is still sending, so a dropped payload
/// turns into a `-1` drain on the consumer side. Shared source with
/// `examples/chan_lost_close.clap`.
pub fn chan_lost_close() -> String {
    include_str!("../../../examples/chan_lost_close.clap").to_owned()
}

/// chan_pipeline — a two-stage producer → transform → sink pipeline
/// over two bounded channels; an early close poisons the downstream
/// sum. Shared source with `examples/chan_pipeline.clap`.
pub fn chan_pipeline() -> String {
    include_str!("../../../examples/chan_pipeline.clap").to_owned()
}

/// chan_workqueue — a bounded work-queue whose producer sheds items
/// with `try_send` when the consumer falls behind. Shared source with
/// `examples/chan_workqueue.clap`.
pub fn chan_workqueue() -> String {
    include_str!("../../../examples/chan_workqueue.clap").to_owned()
}

/// chan_fanin — two producers feed one channel; the aggregator's final
/// `try_recv` poll races with the last send. Shared source with
/// `examples/chan_fanin.clap`.
pub fn chan_fanin() -> String {
    include_str!("../../../examples/chan_fanin.clap").to_owned()
}

/// actor_pingpong — an actor rally over two rendezvous channels, with
/// the multiplier delivered through a `spawn_actor` mailbox and a
/// racing close dropping replies. Shared source with
/// `examples/actor_pingpong.clap`.
pub fn actor_pingpong() -> String {
    include_str!("../../../examples/actor_pingpong.clap").to_owned()
}

/// treiber_stack — lock-free push/pop where a relaxed CAS publishes the
/// top pointer while the node payload store is still buffered. Shared
/// source with `examples/treiber_stack.clap`.
pub fn treiber_stack() -> String {
    include_str!("../../../examples/treiber_stack.clap").to_owned()
}

/// spsc_ring — single-producer single-consumer ring buffer whose relaxed
/// head publish can drain before the slot write. Shared source with
/// `examples/spsc_ring.clap`.
pub fn spsc_ring() -> String {
    include_str!("../../../examples/spsc_ring.clap").to_owned()
}

/// seqlock — sequence-counter reader/writer where relaxed RMW bumps land
/// immediately while the payload stores stay buffered, yielding a torn
/// read under a stable even sequence. Shared source with
/// `examples/seqlock.clap`.
pub fn seqlock() -> String {
    include_str!("../../../examples/seqlock.clap").to_owned()
}
