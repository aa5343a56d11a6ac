//! `FrontRouter` settlement against two fake shards on loopback: every id
//! dispatched settles exactly once — delivered, shed with the shard's own
//! cause, or `Shed(Failover)` when its shard's connection ends with the id
//! still in flight — and a connection retired and re-added under the same
//! shard id at `generation + 1` is not touched by its predecessor's late
//! `Down`.
//!
//! A fake shard is a `TcpListener` thread that reads request frames and
//! answers them by a script. Each one reads every frame the router sends
//! it before it closes, so the router sees a clean EOF (never a reset that
//! could race the answers already written). No verdict reads the clock:
//! the router is pumped until everything settles, under a generous cap
//! that only turns a hang into a failure.

use ms_cluster::FrontRouter;
use ms_net::protocol::{
    read_frame, write_frame, Frame, InferOutcome, InferResponse, WireShedReason,
};
use ms_tensor::Tensor;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What a fake shard does with the `i`-th request frame it reads.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Answer {
    Logits,
    Shed,
    Silent,
}

/// Binds a fake shard that accepts one connection and answers each frame
/// by `script(i)`. With `Some(n)` it closes after reading `n` frames;
/// with `None` it serves until the router closes the connection. Returns
/// the ids it left unanswered.
fn fake_shard(
    reads: Option<usize>,
    script: fn(usize) -> Answer,
) -> (SocketAddr, JoinHandle<Vec<u64>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = stream.try_clone().unwrap();
        let mut writer = stream;
        let mut silent = Vec::new();
        let mut i = 0;
        while reads.is_none_or(|n| i < n) {
            let Ok((frame, _, _)) = read_frame(&mut reader) else {
                break;
            };
            let Frame::InferRequest(req) = frame else {
                panic!("fake shard got a non-request frame");
            };
            let outcome = match script(i) {
                Answer::Logits => InferOutcome::Logits {
                    dims: vec![2],
                    data: vec![req.correlation_id as f32, 1.0],
                },
                Answer::Shed => InferOutcome::Shed(WireShedReason::Backpressure),
                Answer::Silent => {
                    silent.push(req.correlation_id);
                    i += 1;
                    continue;
                }
            };
            let resp = InferResponse {
                correlation_id: req.correlation_id,
                rate_used: 1.0,
                outcome,
            };
            write_frame(&mut writer, &Frame::InferResponse(resp), 0).expect("answer");
            i += 1;
        }
        silent
    });
    (addr, handle)
}

/// Pumps until `expect` responses have settled, then once more without
/// waiting so a duplicate already on its way is caught too.
fn settle(router: &mut FrontRouter, expect: usize) -> Vec<InferResponse> {
    let cap = Instant::now() + Duration::from_secs(60);
    let mut out = Vec::new();
    while out.len() < expect {
        assert!(
            Instant::now() < cap,
            "only {} of {expect} ids settled",
            out.len()
        );
        out.extend(router.pump(Duration::from_millis(50)));
    }
    out.extend(router.pump(Duration::ZERO));
    out
}

/// Tallies `(delivered, shed, failover)` and checks each id settled once.
fn tally(resps: &[InferResponse], settled: &mut HashMap<u64, InferOutcome>) -> [usize; 3] {
    let mut t = [0; 3];
    for r in resps {
        let prev = settled.insert(r.correlation_id, r.outcome.clone());
        assert!(prev.is_none(), "id {} settled twice", r.correlation_id);
        match r.outcome {
            InferOutcome::Logits { .. } => t[0] += 1,
            InferOutcome::Shed(WireShedReason::Failover) => t[2] += 1,
            InferOutcome::Shed(_) => t[1] += 1,
        }
    }
    t
}

#[test]
fn every_id_settles_once_and_a_late_down_spares_the_successor() {
    let input = Tensor::zeros([4]);
    let mut settled = HashMap::new();

    // Shard 0 reads ten frames, answers six, sheds two, ignores the last
    // two and closes. Shard 1 answers everything until it is closed.
    let (addr0, dying) = fake_shard(Some(10), |i| match i {
        0..=5 => Answer::Logits,
        6 | 7 => Answer::Shed,
        _ => Answer::Silent,
    });
    let (addr1, first) = fake_shard(None, |_| Answer::Logits);
    let mut router = FrontRouter::new();
    router.add_shard(0, 1, addr0).unwrap();
    router.add_shard(1, 1, addr1).unwrap();

    // Nothing settles before the pump, so join-shortest-queue splits the
    // twenty ids ten and ten.
    for id in 0..20 {
        assert!(
            router.dispatch(id, 0, &input).is_none(),
            "id {id} shed at dispatch"
        );
    }
    router.flush();
    let resps = settle(&mut router, 20);
    let [delivered, shed, failover] = tally(&resps, &mut settled);
    assert_eq!(
        20,
        delivered + shed + failover,
        "sent == delivered + shed + failover_shed"
    );
    assert_eq!((delivered, shed, failover), (16, 2, 2));
    let silent = dying.join().unwrap();
    assert_eq!(silent.len(), 2);
    for id in silent {
        assert_eq!(
            settled[&id],
            InferOutcome::Shed(WireShedReason::Failover),
            "id {id}, outstanding at EOF, must settle as a failover shed"
        );
    }
    assert_eq!(router.outstanding(), 0);
    assert_eq!(router.live_shards(), 1, "shard 0 is down, shard 1 is not");

    // With shard 0 down, new work lands on shard 1 alone.
    for id in 100..104 {
        assert!(router.dispatch(id, 0, &input).is_none());
    }
    router.flush();
    let [delivered, shed, failover] = tally(&settle(&mut router, 4), &mut settled);
    assert_eq!((delivered, shed, failover), (4, 0, 0));

    // Retire shard 1 and bring it back at generation 2 before the next
    // pump: the old connection's `Down` is still queued when the
    // successor starts serving, and must not mark it down.
    router.remove_shard(1);
    assert!(first.join().unwrap().is_empty());
    let (addr2, second) = fake_shard(None, |_| Answer::Logits);
    router.add_shard(1, 2, addr2).unwrap();
    assert_eq!(router.live_shards(), 1);
    for id in 200..206 {
        assert!(router.dispatch(id, 0, &input).is_none());
    }
    router.flush();
    let [delivered, shed, failover] = tally(&settle(&mut router, 6), &mut settled);
    assert_eq!(
        (delivered, shed, failover),
        (6, 0, 0),
        "the successor served every id"
    );
    assert_eq!(
        router.live_shards(),
        1,
        "the late Down left generation 2 up"
    );
    assert_eq!(router.outstanding(), 0);

    let sent = 20 + 4 + 6;
    assert_eq!(settled.len(), sent, "every id sent settled");
    drop(router);
    assert!(second.join().unwrap().is_empty());
}
