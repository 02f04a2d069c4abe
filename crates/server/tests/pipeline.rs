//! Pipelined-parsing suite for the reactor core: one TCP segment carrying
//! N frames must yield N ordered dispatches, partial frames must
//! reassemble across reads, an oversized frame in the middle of a burst
//! must be refused without desyncing its neighbours, and a thousand idle
//! connections must cost a 4-worker server nothing but wait-set entries.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sbf_server::{ErrorCode, Request, Response, SbfClient, SbfServer, ServerConfig};

const M: usize = 1 << 14;
const K: usize = 5;
const SEED: u64 = 42;

fn test_config() -> ServerConfig {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(M)
        .k(K)
        .seed(SEED)
        .shards(4)
        .workers(4)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .expect("test config is valid")
}

fn key_bytes(key: u64) -> Vec<u8> {
    key.to_le_bytes().to_vec()
}

/// Reads one `[u32 len][opcode][payload]` response frame off a raw socket.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("read frame length");
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read frame body");
    let (op, payload) = body.split_first().expect("response frame nonempty");
    Response::decode(*op, payload).expect("decode response")
}

/// One write carrying many frames yields one response per frame, in
/// order. Interleaving INSERT(count = i+1) with ESTIMATE of the same key
/// makes the order observable: each estimate must already see its
/// insert, and the distinct counts pin each Value to its position. 100
/// pairs also overflows the default `pipeline_depth` (32), so the burst
/// spans several dispatch batches on the server side.
#[test]
fn many_frames_in_one_write_yield_ordered_responses() {
    const PAIRS: u64 = 100;
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut client = SbfClient::builder(handle.addr()).connect().unwrap();

    let mut reqs = Vec::new();
    for i in 0..PAIRS {
        reqs.push(Request::Insert {
            count: i + 1,
            key: key_bytes(i),
        });
        reqs.push(Request::Estimate { key: key_bytes(i) });
    }
    let resps = client.pipeline(&reqs).unwrap();
    assert_eq!(resps.len(), reqs.len());
    for (i, pair) in resps.chunks(2).enumerate() {
        let want = i as u64 + 1;
        assert!(matches!(pair[0], Response::Ok), "insert {i} should ack");
        match pair[1] {
            Response::Value(v) => assert!(
                v >= want,
                "estimate {i} must see its preceding insert: {v} < {want}"
            ),
            ref other => panic!("estimate {i}: unexpected response {other:?}"),
        }
    }
    handle.shutdown_and_join().unwrap();
}

/// A frame dribbled in over three writes (header split, then body split)
/// reassembles into exactly one dispatch.
#[test]
fn a_frame_split_across_reads_is_reassembled() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let frame = Request::Insert {
        count: 7,
        key: b"slow-drip".to_vec(),
    }
    .encode()
    .unwrap();
    // Split inside the length prefix, then inside the payload: the parser
    // must wait for bytes at both boundaries without dispatching early.
    let cuts = [2, frame.len() / 2, frame.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&frame[sent..cut]).unwrap();
        stream.flush().unwrap();
        sent = cut;
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(matches!(read_response(&mut stream), Response::Ok));

    // Exactly one insert landed.
    let mut client = SbfClient::builder(handle.addr()).connect().unwrap();
    assert!(client.estimate(b"slow-drip").unwrap() >= 7);
    handle.shutdown_and_join().unwrap();
}

/// An oversized frame in the middle of a single multi-frame write gets a
/// typed `Oversized` error, its payload is discarded, and the frames on
/// either side of it are answered normally — the stream resyncs.
#[test]
fn an_oversized_frame_mid_pipeline_resyncs_the_stream() {
    let mut config = test_config();
    config.max_frame = 1024;
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let mut burst = Vec::new();
    burst.extend_from_slice(
        &Request::Insert {
            count: 3,
            key: b"before".to_vec(),
        }
        .encode()
        .unwrap(),
    );
    // Declared length 4096 > cap 1024; ship the whole body so the discard
    // path has to skip real bytes to find the next frame.
    burst.extend_from_slice(&4096u32.to_le_bytes());
    burst.push(0x02); // INSERT opcode
    burst.extend(std::iter::repeat_n(0xAB, 4095));
    burst.extend_from_slice(&Request::Ping.encode().unwrap());
    stream.write_all(&burst).unwrap();

    assert!(matches!(read_response(&mut stream), Response::Ok));
    match read_response(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    assert!(
        matches!(read_response(&mut stream), Response::Ok),
        "the frame after the oversized one must be served"
    );
    handle.shutdown_and_join().unwrap();
}

/// The scaling acceptance test: 1000 idle connections parked on a server
/// with 4 workers, while a fresh client gets batched ESTIMATE service.
/// Idle peers are reactor wait-set entries, not threads, so the worker
/// count never bounds the connection count.
#[test]
fn a_thousand_idle_connections_are_held_by_four_workers() {
    const IDLE: usize = 1000;
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    let idlers: Vec<TcpStream> = (0..IDLE)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i} failed: {e}"))
        })
        .collect();

    // Service while parked: a fresh client ingests and reads estimates.
    let mut client = SbfClient::builder(addr).connect().unwrap();
    let keys: Vec<Vec<u8>> = (0..512u64).map(key_bytes).collect();
    client.insert_batch(&keys).unwrap();
    let estimates = client.estimate_batch(&keys).unwrap();
    assert!(estimates.iter().all(|&e| e >= 1), "service while parked");

    // The reactor is actually holding them: this server's own
    // active-connection count includes every parked peer (registration can
    // trail the last connect, so poll briefly). The process-global
    // `sbfd_connections_active` gauge is no witness here: any other server
    // in this test binary overwrites it with its own count.
    let state = handle.state();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut active = state.connections_active();
    while active <= IDLE && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        active = state.connections_active();
    }
    assert!(
        active > IDLE,
        "expected > {IDLE} registered connections, server holds {active}"
    );

    drop(idlers);
    handle.shutdown_and_join().unwrap();
}
