//! Never-panics fuzz of the service's request parser.
//!
//! `http::read_request` is the first code a remote peer's bytes reach, so
//! no input may panic it and no input may make it allocate more than
//! [`MAX_BODY`] in one piece. A seeded generator feeds it random bytes,
//! every truncation of a valid request, heads without a method or a path,
//! non-UTF-8 heads, and hostile `Content-Length` values. Every case must
//! come back as `Ok` or `Err`, and a counting allocator checks the largest
//! single allocation the parser made.

use clap_serve::http::{read_request, MAX_BODY};
use clap_vm::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

/// Passes every allocation to [`System`] and records the largest one made
/// on a thread that has tracking turned on.
struct PeakAlloc;

thread_local! {
    /// The largest allocation so far on this thread; `None` while
    /// tracking is off.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| {
        if let Some(p) = peak.get() {
            peak.set(Some(p.max(size)));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; `note` only
// touches a const-initialized thread-local, which does not allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Parses `input` with allocation tracking on, returning the outcome and
/// the largest single allocation the parser made.
fn parse(input: &[u8]) -> (io::Result<clap_serve::http::Request>, usize) {
    let mut reader = input;
    PEAK.with(|peak| peak.set(Some(0)));
    let result = read_request(&mut reader);
    let peak = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
    (result, peak)
}

/// Parses `input` and checks the allocation bound; returns the outcome.
fn fuzz_case(input: &[u8]) -> io::Result<clap_serve::http::Request> {
    let (result, peak) = parse(input);
    assert!(
        peak <= MAX_BODY,
        "parser allocated {peak} bytes at once (MAX_BODY = {MAX_BODY}) for input {:?}",
        String::from_utf8_lossy(&input[..input.len().min(200)])
    );
    result
}

const VALID: &[u8] = b"POST /submit HTTP/1.1\r\nHost: x\r\nX-Clap-Trace: ab-12\r\n\
                       Content-Length: 5\r\n\r\nhello";

#[test]
fn random_bytes_never_panic() {
    // Bytes drawn mostly from the grammar's own alphabet, so heads end
    // and headers split often enough to reach the later parse stages.
    const ALPHABET: &[u8] = b"\r\n\r\n: GETPOST/ Content-Length0123456789-\xff\xc3";
    let mut rng = Rng::new(0x5eed);
    for _ in 0..3_000 {
        let len = rng.below(300);
        let input: Vec<u8> = (0..len)
            .map(|_| {
                if rng.below(4) == 0 {
                    rng.next_u64() as u8
                } else {
                    ALPHABET[rng.below(ALPHABET.len())]
                }
            })
            .collect();
        let _ = fuzz_case(&input);
    }
}

#[test]
fn every_truncation_of_a_valid_request_is_an_error() {
    let request = fuzz_case(VALID).expect("the untruncated request parses");
    assert_eq!(request.method, "POST");
    assert_eq!(request.path, "/submit");
    assert_eq!(request.body, b"hello");
    assert_eq!(request.trace.as_deref(), Some("ab-12"));
    for cut in 0..VALID.len() {
        assert!(
            fuzz_case(&VALID[..cut]).is_err(),
            "a request cut after {cut} bytes must not parse"
        );
    }
}

#[test]
fn heads_without_method_or_path_or_utf8_are_errors() {
    let cases: &[&[u8]] = &[
        b"\r\n\r\n",
        b" \r\n\r\n",
        b"\t \r\n\r\n",
        b"GET\r\n\r\n",
        b"GET \r\nHost: x\r\n\r\n",
        b"\xff\xfe /x HTTP/1.1\r\n\r\n",
        b"GET /\xc3\x28 HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Clap-Trace: \xed\xa0\x80\r\n\r\n",
    ];
    for case in cases {
        assert!(
            fuzz_case(case).is_err(),
            "{:?} must not parse",
            String::from_utf8_lossy(case)
        );
    }
    // A head that opens with a UTF-8 continuation byte is never valid
    // UTF-8, whatever follows it.
    let mut rng = Rng::new(0xbad_0df8);
    for _ in 0..500 {
        let mut head = vec![0x80 | (rng.next_u64() as u8 & 0x3f)];
        head.extend((0..rng.below(60)).map(|_| rng.next_u64() as u8));
        head.extend_from_slice(b" /x HTTP/1.1\r\n\r\n");
        assert!(fuzz_case(&head).is_err(), "a non-UTF-8 head must not parse");
    }
}

#[test]
fn hostile_content_lengths_are_errors() {
    let over = (MAX_BODY + 1).to_string();
    let huge = u64::MAX.to_string();
    let values: &[&str] = &[
        "abc",
        "",
        "1e3",
        "0x10",
        "+-1",
        "1 2",
        "-1",
        "-0x1",
        "-99999999999999999999",
        &over,
        &huge,
        "99999999999999999999999999",
    ];
    for value in values {
        let head = format!("POST /submit HTTP/1.1\r\nContent-Length: {value}\r\n\r\nbody");
        assert!(
            fuzz_case(head.as_bytes()).is_err(),
            "Content-Length {value:?} must be rejected"
        );
    }
    let mut rng = Rng::new(0xc0ffee);
    for _ in 0..500 {
        let value = MAX_BODY as u64 + 1 + rng.next_u64() % (u64::MAX - MAX_BODY as u64 - 1);
        let head = format!("POST /submit HTTP/1.1\r\ncontent-length: {value}\r\n\r\n");
        assert!(fuzz_case(head.as_bytes()).is_err());
    }
    // A body shorter than its declared length is truncated input.
    let head = format!("POST /submit HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\nshort");
    assert!(fuzz_case(head.as_bytes()).is_err());
    // The largest legal body parses, in one allocation of exactly
    // MAX_BODY bytes (which also shows the allocation tracking is live).
    let mut full =
        format!("POST /submit HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n").into_bytes();
    full.resize(full.len() + MAX_BODY, b'x');
    let (request, peak) = parse(&full);
    assert_eq!(
        request.expect("a MAX_BODY body is accepted").body.len(),
        MAX_BODY
    );
    assert_eq!(peak, MAX_BODY);
}

#[test]
fn oversized_heads_are_errors() {
    let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(200 * 1024, b'a');
    head.extend_from_slice(b"\r\n\r\n");
    assert!(fuzz_case(&head).is_err());
}
