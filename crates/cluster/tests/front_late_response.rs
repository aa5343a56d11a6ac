//! Responses still queued when their shard is removed must not settle a
//! second time the ids `FrontRouter::remove_shard` already shed.

use ms_cluster::FrontRouter;
use ms_net::protocol::{read_frame, write_frame, Frame, InferOutcome, WireShedReason};
use ms_tensor::Tensor;
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn a_response_behind_a_failover_shed_is_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        for _ in 0..8 {
            let Ok((Frame::InferRequest(req), _, _)) = read_frame(&mut stream) else {
                panic!("expected a request frame");
            };
            let resp = ms_net::InferResponse {
                correlation_id: req.correlation_id,
                rate_used: 0.0,
                outcome: InferOutcome::Shed(WireShedReason::Backpressure),
            };
            write_frame(&mut stream, &Frame::InferResponse(resp), 0).unwrap();
        }
    });
    let mut router = FrontRouter::new();
    router.add_shard(0, 1, addr).unwrap();
    for id in 0..8 {
        assert!(router.dispatch(id, 0, &Tensor::zeros([2])).is_none());
    }
    router.flush();
    shard.join().unwrap();
    // Nothing pumped yet: all eight are outstanding when the shard goes,
    // and `remove_shard` joins the reader, so one pump sees every event it
    // will ever send.
    router.remove_shard(0);
    let out = router.pump(Duration::ZERO);
    assert_eq!(out.len(), 8, "each id settles once");
    let failover = InferOutcome::Shed(WireShedReason::Failover);
    assert!(out.iter().all(|r| r.outcome == failover));
}
