//! End-to-end tests of the `anatomy-serve` daemon over real loopback
//! TCP (DESIGN.md §9): multi-model routing with bit-parity against
//! direct sessions, deterministic load shed under queue saturation,
//! zero-downtime hot reload under concurrent traffic, and
//! hostile-input hardening at the wire level.

use anatomy::daemon::codec::{write_frame, FrameReader};
use anatomy::daemon::protocol::{
    encode_header, encode_hello, encode_infer, ErrorCode, FrameType, HEADER_LEN, VERSION,
};
use anatomy::daemon::{Client, Daemon, DaemonConfig, ModelConfig};
use anatomy::serve::ServeConfig;
use anatomy::tensor::rng::SplitMix64;
use anatomy::{ConvOpts, Error, GraphBuilder, InferenceSession, ModelSpec, StateDict};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One precomputed request: the image, plus the probs/top1 a direct
/// session produced for it.
type ExpectedRequest = (Vec<f32>, Vec<f32>, Vec<usize>);

/// A tiny conv → pool → conv → gap → fc model; `seed` fixes the
/// random weight init, so equal seeds mean bit-identical networks.
fn tiny_model(hw: usize, classes: usize, seed: u64) -> ModelSpec {
    GraphBuilder::new()
        .seed(seed)
        .input("data", 3, hw, hw)
        .conv("c1", ConvOpts::k(8).rs(3).pad(1).bias().relu())
        .max_pool("p1", 2, 2, 0)
        .conv("c2", ConvOpts::k(8).rs(3).pad(1).bias().relu())
        .gap("g")
        .fc("fc", classes)
        .softmax("loss")
        .build()
        .expect("tiny topology is valid")
}

fn serve_cfg(replicas: usize, minibatch: usize) -> ServeConfig {
    ServeConfig::new(replicas, 1, minibatch).with_max_wait(Duration::from_millis(1))
}

/// Two models served concurrently over one TCP daemon: every response
/// must be bit-identical to a direct `InferenceSession` on the same
/// spec, under multi-threaded client traffic hitting both models.
#[test]
fn two_models_concurrently_bit_parity() {
    let alpha = tiny_model(8, 4, 11);
    let beta = tiny_model(12, 6, 22);
    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![
            ModelConfig::new("alpha", &alpha, serve_cfg(1, 2)).unwrap(),
            ModelConfig::new("beta", &beta, serve_cfg(1, 2)).unwrap(),
        ],
    )
    .unwrap();
    let addr = daemon.local_addr();

    // precompute per-thread request streams and expected outputs
    const THREADS: usize = 4;
    const REQUESTS: usize = 8;
    let mut plans: Vec<(String, Vec<ExpectedRequest>)> = Vec::new();
    for t in 0..THREADS {
        let (name, spec) = if t % 2 == 0 { ("alpha", &alpha) } else { ("beta", &beta) };
        let mut session = InferenceSession::new(spec, 2, 1).unwrap();
        let elems = session.sample_elems();
        let mut rng = SplitMix64::new(0xe2e + t as u64);
        let mut stream = Vec::new();
        for _ in 0..REQUESTS {
            let mut image = vec![0.0f32; elems];
            rng.fill_f32(&mut image);
            let want = session.run_samples(&image, 1).unwrap();
            stream.push((image, want.probs, want.top1));
        }
        plans.push((name.to_string(), stream));
    }

    std::thread::scope(|scope| {
        for (name, stream) in &plans {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (image, want_probs, want_top1) in stream {
                    let out = client.infer(name, 1, image).unwrap();
                    assert_eq!(&out.probs, want_probs, "model '{name}' must be bit-identical");
                    assert_eq!(&out.top1, want_top1);
                }
            });
        }
    });

    let stats = daemon.shutdown();
    assert!(stats.contains("serve_model_requests_total{model=\"alpha\"} 16"));
    assert!(stats.contains("serve_model_requests_total{model=\"beta\"} 16"));
    assert!(stats.contains("serve_models 2"));
}

/// Queue saturation sheds load with a typed Busy error over the wire:
/// 4 samples sit queued below a minibatch of 8 under a long flush
/// deadline, so a further 8-sample request overflows the 8-sample cap
/// deterministically.
#[test]
fn busy_load_shed_over_the_wire() {
    let model = tiny_model(8, 4, 33);
    let cfg = ServeConfig::new(1, 1, 8).with_max_wait(Duration::from_secs(30)).with_queue_cap(8);
    let daemon =
        Daemon::bind(DaemonConfig::loopback(), vec![ModelConfig::new("m", &model, cfg).unwrap()])
            .unwrap();
    let addr = daemon.local_addr();
    let elems = daemon.registry().frontend("m").unwrap().sample_elems();

    std::thread::scope(|scope| {
        // connection A: 4 samples — admitted, then parked waiting for
        // a full batch (the 30s deadline never fires in this test)
        let waiter = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.infer("m", 4, &vec![0.1f32; 4 * elems]).unwrap()
        });
        // wait until those 4 samples are visibly queued
        let mut observer = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = observer.stats(Some("m")).unwrap();
            if stats.contains("serve_model_queue_depth{model=\"m\"} 4") {
                break;
            }
            assert!(Instant::now() < deadline, "samples never reached the queue");
            std::thread::sleep(Duration::from_millis(5));
        }

        // connection B: 8 more samples — 4 + 8 > cap 8, shed as Busy
        let mut client = Client::connect(addr).unwrap();
        let err = client.infer("m", 8, &vec![0.2f32; 8 * elems]).unwrap_err();
        match err {
            Error::Busy { queued, capacity } => {
                assert_eq!(queued, 4);
                assert_eq!(capacity, 8);
            }
            other => panic!("expected Error::Busy, got {other:?}"),
        }

        // 4 more samples fit exactly, complete the batch, and unpark A
        let out = client.infer("m", 4, &vec![0.3f32; 4 * elems]).unwrap();
        assert_eq!(out.top1.len(), 4);
        assert_eq!(waiter.join().unwrap().top1.len(), 4);
    });

    let stats = daemon.shutdown();
    assert!(stats.contains("serve_model_busy_rejections_total{model=\"m\"} 1"));
}

/// Hot reload under concurrent in-flight traffic: the daemon starts
/// on a known dict, the same dict is republished over the wire while
/// clients hammer the model, and every single response must succeed
/// and stay bit-identical to the donor session — a swap to identical
/// weights must be invisible except for the generation counter.
#[test]
fn hot_reload_under_traffic_bit_parity() {
    let spec = tiny_model(8, 4, 44);
    let mut donor = InferenceSession::new(&spec, 2, 1).unwrap();
    let dict = donor.network().state_dict();
    let elems = donor.sample_elems();

    // host with the donor's weights so pre-reload outputs match too
    let cfg = ServeConfig::new(2, 1, 2).with_max_wait(Duration::from_millis(1));
    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![ModelConfig::new("m", &spec, cfg).unwrap().with_weights(dict.clone())],
    )
    .unwrap();
    let addr = daemon.local_addr();

    // fixed per-thread image, expected output from the donor session
    const THREADS: usize = 4;
    let mut expected = Vec::new();
    for t in 0..THREADS {
        let mut rng = SplitMix64::new(0x4e10ad + t as u64);
        let mut image = vec![0.0f32; elems];
        rng.fill_f32(&mut image);
        let want = donor.run_samples(&image, 1).unwrap();
        expected.push((image, want.probs));
    }

    const RELOADS: u64 = 10;
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let stop_at = Instant::now() + Duration::from_secs(4);
        for (image, want_probs) in &expected {
            let completed = &completed;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while Instant::now() < stop_at {
                    let out = client.infer("m", 1, image).expect("no request may fail");
                    assert_eq!(
                        &out.probs, want_probs,
                        "identical weights must give identical outputs across reloads"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // reload the same dict over the wire while traffic is in flight
        let mut admin = Client::connect(addr).unwrap();
        for i in 1..=RELOADS {
            let generation = admin.reload("m", &dict).expect("reload must succeed");
            assert_eq!(generation, i, "each reload bumps the generation by one");
            std::thread::sleep(Duration::from_millis(150));
        }
    });

    assert!(completed.load(Ordering::Relaxed) > 0, "traffic threads must have run");
    let stats = daemon.shutdown();
    assert!(stats.contains(&format!("serve_model_reloads_total{{model=\"m\"}} {RELOADS}")));
    assert!(stats.contains(&format!("serve_model_weight_generation{{model=\"m\"}} {RELOADS}")));
    assert!(stats.contains("serve_model_reload_failures_total{model=\"m\"} 0"));
}

/// Hot-swap rejection: a dict missing a tensor, carrying an extra one
/// or holding wrong dims is refused with a typed `StateDict` error —
/// by `BatchingFrontend::publish_weights` and by a wire `Reload` — and
/// leaves the weight generation and the served outputs untouched.
#[test]
fn hot_swap_rejects_mismatched_dicts() {
    let spec = tiny_model(8, 4, 66);
    let good = InferenceSession::new(&spec, 2, 1).unwrap().network().state_dict();
    let mut missing = StateDict::new();
    for (name, e) in good.iter().filter(|(name, _)| *name != "c1.weight") {
        missing.insert(name, e.dims.clone(), e.data.clone()).unwrap();
    }
    let mut extra = good.clone();
    extra.insert("ghost.weight", vec![1], vec![0.0]).unwrap();
    let mut wrong_dims = good.clone();
    wrong_dims.insert("fc.bias", vec![3], vec![0.0; 3]).unwrap();

    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![ModelConfig::new("m", &spec, serve_cfg(1, 2)).unwrap()],
    )
    .unwrap();
    let frontend = daemon.registry().frontend("m").unwrap();
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    let mut image = vec![0.0f32; 3 * 8 * 8];
    SplitMix64::new(0x5ab).fill_f32(&mut image);
    let before = client.infer("m", 1, &image).unwrap().probs;
    for (kind, dict) in [("missing", missing), ("extra", extra), ("wrong dims", wrong_dims)] {
        let published = frontend.publish_weights(dict.clone());
        assert!(matches!(published, Err(Error::StateDict(_))), "{kind}: {published:?}");
        let reloaded = client.reload("m", &dict);
        assert!(matches!(reloaded, Err(Error::StateDict(_))), "{kind}: {reloaded:?}");
        assert_eq!(frontend.weight_generation(), 0, "{kind}: a rejected dict publishes nothing");
        let after = client.infer("m", 1, &image).unwrap().probs;
        assert_eq!(after, before, "{kind}: the served weights must be untouched");
    }
    // the schema accepts the dict it describes
    assert_eq!(client.reload("m", &good).unwrap(), 1);
    let stats = daemon.shutdown();
    assert!(stats.contains("serve_model_reloads_total{model=\"m\"} 1"), "{stats}");
}

/// Read one frame off a raw blocking socket.
fn read_raw_frame(stream: &mut TcpStream) -> anatomy::daemon::protocol::Frame {
    FrameReader::new(1 << 20).read_frame(stream).expect("server answers with a frame")
}

/// Hostile input: every malformed byte stream is either answered with
/// a typed error frame or dropped — and the daemon keeps serving new
/// connections afterwards.
#[test]
fn hostile_inputs_do_not_take_the_daemon_down() {
    let model = tiny_model(8, 4, 55);
    let daemon = Daemon::bind(
        DaemonConfig::loopback().with_max_frame_len(1 << 16),
        vec![ModelConfig::new("m", &model, serve_cfg(1, 2)).unwrap()],
    )
    .unwrap();
    let addr = daemon.local_addr();
    let elems = daemon.registry().frontend("m").unwrap().sample_elems();

    // 1. truncated frame: half a header, then disconnect
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_header(FrameType::Hello, 1, 64)[..10]).unwrap();
    } // dropped mid-frame

    // 2. bad magic: answered BadFrame, then closed
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut header = encode_header(FrameType::Hello, 1, 0);
        header[0] = b'X';
        s.write_all(&header).unwrap();
        let frame = read_raw_frame(&mut s);
        assert_eq!(frame.ty, FrameType::Error);
        let (code, ..) = anatomy::daemon::protocol::parse_error(&frame.payload).unwrap();
        assert_eq!(code, ErrorCode::BadFrame);
        // server closed: the next read sees EOF
        assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0);
    }

    // 3. wrong protocol version byte: answered VersionMismatch
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut header = encode_header(FrameType::Hello, 1, 0);
        header[4] = VERSION + 1;
        s.write_all(&header).unwrap();
        let frame = read_raw_frame(&mut s);
        let (code, ..) = anatomy::daemon::protocol::parse_error(&frame.payload).unwrap();
        assert_eq!(code, ErrorCode::VersionMismatch);
    }

    // 4. oversized frame: payload length over the daemon's cap is
    // rejected at the header, before any allocation
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_header(FrameType::Infer, 1, (1 << 16) + 1)).unwrap();
        let frame = read_raw_frame(&mut s);
        let (code, ..) = anatomy::daemon::protocol::parse_error(&frame.payload).unwrap();
        assert_eq!(code, ErrorCode::BadFrame);
    }

    // 5. server→client frame type sent to the server: rejected + close
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, FrameType::InferOk, 7, &[]).unwrap();
        let frame = read_raw_frame(&mut s);
        assert_eq!(frame.ty, FrameType::Error);
        assert_eq!(frame.id, 7, "request-level errors echo the request id");
        assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0);
    }

    // 6. mid-request disconnect: a valid header + partial payload,
    // then the client vanishes
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, FrameType::Hello, 1, &encode_hello(VERSION, VERSION, "x")).unwrap();
        let _ = read_raw_frame(&mut s);
        let infer = encode_infer("m", 1, &vec![0.5f32; elems]);
        s.write_all(&encode_header(FrameType::Infer, 2, infer.len() as u32)).unwrap();
        s.write_all(&infer[..infer.len() / 2]).unwrap();
    } // dropped mid-payload

    // 7. well-formed but wrong: unknown model and bad payload size are
    // typed errors on a connection that stays open
    {
        let mut client = Client::connect(addr).unwrap();
        let err = client.infer("nope", 1, &vec![0.5f32; elems]).unwrap_err();
        assert!(matches!(err, Error::BadInput(_)), "unknown model: {err:?}");
        let err = client.infer("m", 1, &vec![0.5f32; elems - 1]).unwrap_err();
        assert!(matches!(err, Error::BadInput(_)), "wrong payload size: {err:?}");
        // same connection still serves good requests
        let out = client.infer("m", 1, &vec![0.5f32; elems]).unwrap();
        assert_eq!(out.top1.len(), 1);
    }

    // after all of the above, a fresh connection still works
    let mut client = Client::connect(addr).unwrap();
    let out = client.infer("m", 2, &vec![0.25f32; 2 * elems]).unwrap();
    assert_eq!(out.top1.len(), 2);

    let stats = daemon.shutdown();
    assert!(stats.contains("serve_wire_errors_total"));
}

/// The version negotiation round trip rejects clients whose offered
/// range excludes the server's version, with a VersionMismatch error.
#[test]
fn hello_version_negotiation() {
    let model = tiny_model(8, 4, 66);
    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![ModelConfig::new("m", &model, serve_cfg(1, 2)).unwrap()],
    )
    .unwrap();
    let addr = daemon.local_addr();

    // offer only a future version: rejected and closed
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, FrameType::Hello, 1, &encode_hello(VERSION + 1, VERSION + 4, "x")).unwrap();
    let frame = read_raw_frame(&mut s);
    assert_eq!(frame.ty, FrameType::Error);
    let (code, ..) = anatomy::daemon::protocol::parse_error(&frame.payload).unwrap();
    assert_eq!(code, ErrorCode::VersionMismatch);
    assert_eq!(s.read(&mut [0u8; HEADER_LEN]).unwrap(), 0);

    // a range spanning the server's version succeeds
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, FrameType::Hello, 2, &encode_hello(VERSION, VERSION + 3, "x")).unwrap();
    let frame = read_raw_frame(&mut s);
    assert_eq!(frame.ty, FrameType::HelloOk);
    let (version, banner) = anatomy::daemon::protocol::parse_hello_ok(&frame.payload).unwrap();
    assert_eq!(version, VERSION);
    assert!(banner.starts_with("anatomy-serve/"));

    daemon.shutdown();
}
