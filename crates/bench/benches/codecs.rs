//! Wire-codec benchmarks: the RFC 1035 DNS message codec (with name
//! compression) and the SMTP line/DATA framing — the per-packet work the
//! scans and deliveries pay millions of times.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ets_dns::record::{RecordType, ResourceRecord};
use ets_dns::wire::{decode, encode, DnsMessage, Rcode};
use ets_mail::MessageBuilder;
use ets_smtp::codec::{stuff, Frame, LineCodec};
use std::net::Ipv4Addr;

fn sample_response() -> DnsMessage {
    let q = DnsMessage::query(7, "smtp.exampel.com".parse().unwrap(), RecordType::Mx);
    let mut resp = DnsMessage::response_to(&q, Rcode::NoError);
    resp.answers.push(ResourceRecord::mx(
        "smtp.exampel.com",
        300,
        1,
        "exampel.com",
    ));
    resp.answers.push(ResourceRecord::a(
        "exampel.com",
        300,
        Ipv4Addr::new(1, 1, 1, 1),
    ));
    resp.authority
        .push(ResourceRecord::ns("exampel.com", 300, "ns1.exampel.com"));
    resp
}

fn bench_dns_encode(c: &mut Criterion) {
    let resp = sample_response();
    c.bench_function("dns/encode", |b| {
        b.iter(|| black_box(encode(black_box(&resp))))
    });
}

fn bench_dns_decode(c: &mut Criterion) {
    let wire = encode(&sample_response());
    c.bench_function("dns/decode", |b| {
        b.iter(|| black_box(decode(black_box(&wire)).unwrap()))
    });
}

fn bench_smtp_framing(c: &mut Criterion) {
    let msg = MessageBuilder::new()
        .raw_from("a@x.com")
        .raw_to("b@y.com")
        .subject("bench")
        .body(&"line of body text\n".repeat(50))
        .build();
    let stuffed = stuff(&msg.to_wire());
    c.bench_function("smtp/data-framing-1kb", |b| {
        b.iter(|| {
            let mut codec = LineCodec::new();
            codec.enter_data_mode();
            codec.feed(black_box(stuffed.as_bytes()));
            match codec.next_frame().unwrap() {
                Some(Frame::Data(d)) => black_box(d.len()),
                other => panic!("{other:?}"),
            }
        })
    });
    // A 1 MiB payload drip-fed in 1460-byte (one TCP segment) reads: the
    // per-segment framing work must stay flat as the payload grows.
    let big = MessageBuilder::new()
        .raw_from("a@x.com")
        .raw_to("b@y.com")
        .subject("bench")
        .body(&".dotted line of body text\nline of body text\n".repeat(24 * 1024))
        .build();
    let stuffed = stuff(&big.to_wire());
    assert!(stuffed.len() >= 1 << 20);
    c.bench_function("smtp/data-framing-drip-1mib", |b| {
        b.iter(|| {
            let mut codec = LineCodec::new();
            codec.enter_data_mode();
            let mut framed = None;
            for segment in stuffed.as_bytes().chunks(1460) {
                codec.feed(black_box(segment));
                if let Some(Frame::Data(d)) = codec.next_frame().unwrap() {
                    framed = Some(d.len());
                }
            }
            black_box(framed.expect("complete payload"))
        })
    });
}

fn bench_mime_round_trip(c: &mut Criterion) {
    let msg = MessageBuilder::new()
        .raw_from("a@x.com")
        .raw_to("b@y.com")
        .subject("bench")
        .body("body")
        .attach("f.bin", "application/octet-stream", vec![0xA5; 4096])
        .build();
    c.bench_function("mime/serialize+parse-4kb-attachment", |b| {
        b.iter(|| {
            let wire = black_box(&msg).to_wire();
            black_box(ets_mail::Message::parse(&wire).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_dns_encode,
    bench_dns_decode,
    bench_smtp_framing,
    bench_mime_round_trip
);
criterion_main!(benches);
