//! Hostile bytes against the order-batch message codec, with the heap
//! watched: truncated input, an inflated batch count and a wrong tag must
//! each come back as a `WireError` — no panic — and decoding them may
//! allocate only what the input can back: nothing for a count the input
//! cannot hold, and never more than the in-memory form of the orders the
//! bytes could encode.
//!
//! The watch is a counting global allocator, which is why this suite is a
//! test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use marketminer::messages::{Cause, EventId, Message, OrderRequest, OrderSide};
use marketminer::shard::wire_msg::ORDER_MIN_BYTES;
use pairtrade_core::spec::StrategyKind;

struct Watch;

thread_local! {
    /// Bytes this thread has allocated since the last reset.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static HEAP: Watch = Watch;

/// Decode `bytes` as a message; returns whether it decoded and how many
/// bytes the attempt allocated.
fn decode_watched(bytes: &[u8]) -> (bool, usize) {
    ALLOCATED.with(|c| c.set(0));
    let ok = wire::from_bytes::<Message>(bytes).is_ok();
    (ok, ALLOCATED.with(Cell::get))
}

/// The most a decode of `len` input bytes may allocate: the batch's one
/// reservation, held to the orders `len` bytes could encode (at least
/// `ORDER_MIN_BYTES` on the wire, `size_of::<OrderRequest>()` in memory),
/// plus the causes' parents, 8 bytes in memory per 8 on the wire.
fn budget(len: usize) -> usize {
    len * std::mem::size_of::<OrderRequest>() / ORDER_MIN_BYTES + len
}

fn batch_bytes() -> Vec<u8> {
    let orders: Vec<OrderRequest> = (0..4)
        .map(|k| OrderRequest {
            interval: 300,
            param_set: 11,
            strategy: StrategyKind::Paper,
            stock: k,
            side: if k % 2 == 0 {
                OrderSide::Buy
            } else {
                OrderSide::Sell
            },
            shares: 3,
            price: 41.25,
            pair: (9, k),
            needs_confirmation: false,
            cause: Cause {
                id: EventId::new(5, k as u64),
                wall_us: 77,
                parents: vec![EventId::new(4, 1), EventId::new(3, 2)],
            },
        })
        .collect();
    wire::to_bytes(&Message::Orders(orders.into()))
}

#[test]
fn the_intact_batch_decodes() {
    assert!(decode_watched(&batch_bytes()).0);
}

#[test]
fn truncated_batches_fail_within_the_input() {
    let bytes = batch_bytes();
    for cut in 0..bytes.len() {
        let (ok, allocated) = decode_watched(&bytes[..cut]);
        assert!(!ok, "cut at {cut} decoded");
        assert!(
            allocated <= budget(cut),
            "cut at {cut} allocated {allocated} bytes"
        );
    }
}

#[test]
fn inflated_counts_fail_before_allocating() {
    let bytes = batch_bytes();
    for count in [5u64, 1 << 16, 1 << 40, u64::MAX] {
        let mut bad = bytes.clone();
        bad[1..9].copy_from_slice(&count.to_le_bytes());
        let (ok, allocated) = decode_watched(&bad);
        assert!(!ok, "count {count} decoded");
        assert_eq!(allocated, 0, "count {count} allocated {allocated} bytes");
    }
}

#[test]
fn inflated_parent_counts_fail_within_the_input() {
    // The first order's cause sits at the end of its 95 bytes: its parent
    // count is the word before the two parents.
    let mut bad = batch_bytes();
    let at = 9 + 95 - 8 * 3;
    bad[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let (ok, allocated) = decode_watched(&bad);
    assert!(!ok);
    assert!(
        allocated <= budget(bad.len()),
        "allocated {allocated} bytes"
    );
}

#[test]
fn wrong_tags_fail_within_the_input() {
    let bytes = batch_bytes();
    for tag in [9u8, 42, u8::MAX] {
        let mut bad = bytes.clone();
        bad[0] = tag;
        let (ok, allocated) = decode_watched(&bad);
        assert!(!ok, "tag {tag} decoded");
        assert!(
            allocated <= budget(bad.len()),
            "tag {tag} allocated {allocated} bytes"
        );
    }
}
