//! Line framing for the TCP driver.
//!
//! SMTP is line-oriented: commands and replies end with CRLF, and the DATA
//! payload ends with the lone-dot line `CRLF . CRLF` with leading-dot
//! transparency ("dot stuffing", RFC 5321 §4.5.2). [`LineCodec`]
//! accumulates raw socket bytes and yields complete frames.
//!
//! Both modes frame one CRLF-terminated line at a time. In DATA mode each
//! line is decoded as soon as its CRLF arrives: a leading `..` becomes `.`,
//! the line is appended to the payload being assembled, and its raw bytes
//! leave the input buffer. The lone-dot line `.` ends the payload. The
//! codec remembers how far it has searched the partial line at the front
//! of the buffer, so every input byte is searched for CRLF once and copied
//! once: framing a payload costs time linear in its size however the
//! transport segments it, and during DATA the input buffer holds at most
//! one partial line.
//!
//! Frames borrow from a scratch buffer owned by the codec: decoding a
//! command line or a DATA payload writes into the same reusable `String`,
//! so a session that handles a million lines performs zero per-frame heap
//! allocations after warm-up (the serving hot path measured by
//! `ets-loadgen`). A caller that needs the text beyond the next
//! `feed`/`next_frame` call copies it out explicitly.

use bytes::{Buf, BytesMut};

/// Maximum accepted command-line length (RFC 5321 allows 512 for commands;
/// we are generous to tolerate long paths).
pub const MAX_LINE_LEN: usize = 2048;

/// Maximum accepted DATA payload in raw (still dot-stuffed) bytes
/// (defensive cap; the study's emails are far smaller).
pub const MAX_DATA_LEN: usize = 16 * 1024 * 1024;

/// Framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A line exceeded [`MAX_LINE_LEN`].
    LineTooLong,
    /// A DATA payload exceeded [`MAX_DATA_LEN`].
    DataTooLong,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::LineTooLong => write!(f, "line exceeds {MAX_LINE_LEN} bytes"),
            CodecError::DataTooLong => write!(f, "data exceeds {MAX_DATA_LEN} bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// What the codec is currently framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Command/reply lines.
    Line,
    /// DATA payload until `CRLF . CRLF`.
    Data,
}

/// An incremental framer over a byte stream.
#[derive(Debug)]
pub struct LineCodec {
    buf: BytesMut,
    mode: Mode,
    /// Length of the prefix of `buf` already searched for a line feed
    /// without finding a CRLF.
    scanned: usize,
    /// Raw bytes of the current DATA payload already decoded into
    /// `scratch` (and dropped from `buf`).
    data_raw: usize,
    /// Raw-byte cap on a DATA payload; [`MAX_DATA_LEN`] outside tests.
    max_data: usize,
    /// Reusable decode target; the most recent frame borrows from it.
    /// During DATA it holds the payload decoded so far.
    scratch: String,
}

/// A decoded frame, borrowing the codec's scratch buffer. Valid until the
/// next `next_frame`/`feed` call on the codec that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// One command or reply line, CRLF stripped.
    Line(&'a str),
    /// A complete DATA payload, dot-unstuffed, terminator stripped.
    Data(&'a str),
}

impl LineCodec {
    /// Creates an empty codec in line mode.
    pub fn new() -> Self {
        LineCodec {
            buf: BytesMut::with_capacity(1024),
            mode: Mode::Line,
            scanned: 0,
            data_raw: 0,
            max_data: MAX_DATA_LEN,
            scratch: String::new(),
        }
    }

    /// Feeds raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Switches to DATA framing (after the server answers 354).
    pub fn enter_data_mode(&mut self) {
        if self.mode == Mode::Line {
            self.mode = Mode::Data;
            self.data_raw = 0;
            self.scratch.clear();
        }
    }

    /// Whether the codec is framing a DATA payload.
    pub fn in_data_mode(&self) -> bool {
        self.mode == Mode::Data
    }

    /// Attempts to extract the next complete frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        match self.mode {
            Mode::Line => self.next_line(),
            Mode::Data => self.next_data(),
        }
    }

    /// Offset of the CRLF ending the line at the front of `buf`, searching
    /// only bytes not searched before.
    fn line_end(&mut self) -> Option<usize> {
        let end = find_crlf(&self.buf, self.scanned);
        if end.is_none() {
            self.scanned = self.buf.len();
        }
        end
    }

    /// Drops the line at the front of `buf` together with its CRLF.
    fn consume_line(&mut self, end: usize) {
        self.buf.advance(end + 2);
        self.scanned = 0;
    }

    fn next_line(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        if let Some(end) = self.line_end() {
            if end > MAX_LINE_LEN {
                return Err(CodecError::LineTooLong);
            }
            self.scratch.clear();
            push_lossy(&mut self.scratch, &self.buf[..end]);
            self.consume_line(end);
            return Ok(Some(Frame::Line(&self.scratch)));
        }
        if self.buf.len() > MAX_LINE_LEN {
            return Err(CodecError::LineTooLong);
        }
        Ok(None)
    }

    fn next_data(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        // One reservation for the lines about to be decoded.
        self.scratch.reserve(self.buf.len());
        while let Some(end) = self.line_end() {
            if &self.buf[..end] == b"." {
                self.consume_line(end);
                self.mode = Mode::Line;
                // The last line's CRLF is the start of the terminator.
                if self.scratch.ends_with("\r\n") {
                    self.scratch.truncate(self.scratch.len() - 2);
                }
                return Ok(Some(Frame::Data(&self.scratch)));
            }
            push_unstuffed_line(&mut self.scratch, &self.buf[..end + 2]);
            self.data_raw += end + 2;
            self.consume_line(end);
        }
        if self.data_raw + self.buf.len() > self.max_data {
            return Err(CodecError::DataTooLong);
        }
        Ok(None)
    }

    /// Bytes buffered but not yet framed. During DATA that is only the
    /// partial line still waiting for its CRLF: complete lines are decoded
    /// into the payload as they arrive.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

impl Default for LineCodec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes examined by [`find_crlf`] on this thread, for the tests that
    /// bound the framer's work.
    static CRLF_SEARCHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Offset of the first CRLF in `buf` whose LF lies at or after `from`.
/// Bytes before `from` are not examined except for the CR in front of the
/// first LF found, so a caller that passes the length it has already
/// searched examines each byte once.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    let found = loop {
        let Some(p) = buf[at..].iter().position(|&b| b == b'\n') else {
            break None;
        };
        let lf = at + p;
        if lf > 0 && buf[lf - 1] == b'\r' {
            break Some(lf - 1);
        }
        at = lf + 1;
    };
    #[cfg(test)]
    CRLF_SEARCHED.with(|n| n.set(n.get() + found.map_or(buf.len(), |p| p + 2) - from));
    found
}

/// Appends raw bytes as UTF-8; invalid sequences take the (allocating)
/// lossy decoder, which real SMTP traffic essentially never hits.
fn push_lossy(out: &mut String, raw: &[u8]) {
    match std::str::from_utf8(raw) {
        Ok(s) => out.push_str(s),
        Err(_) => out.push_str(&String::from_utf8_lossy(raw)),
    }
}

/// Appends one raw payload line (with its CRLF, if any) to `out`, removing
/// its dot-stuffing: a leading `..` becomes `.`. The one transparency rule
/// shared by the DATA decoder and [`unstuff`].
fn push_unstuffed_line(out: &mut String, line: &[u8]) {
    match line.strip_prefix(b"..") {
        Some(rest) => {
            out.push('.');
            push_lossy(out, rest);
        }
        None => push_lossy(out, line),
    }
}

/// Removes dot-stuffing: a leading `..` on a CRLF-delimited line becomes
/// `.`, and one trailing CRLF is dropped.
pub fn unstuff(data: &str) -> String {
    let raw = data.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut start = 0;
    while start < raw.len() {
        let end = find_crlf(raw, start).map_or(raw.len(), |p| p + 2);
        push_unstuffed_line(&mut out, &raw[start..end]);
        start = end;
    }
    if out.ends_with("\r\n") {
        out.truncate(out.len() - 2);
    }
    out
}

/// Adds dot-stuffing and the terminator to a payload for transmission.
pub fn stuff(data: &str) -> String {
    let mut out = String::with_capacity(data.len() + 8);
    for line in data.split('\n') {
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push_str("\r\n");
    }
    out.push_str(".\r\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Detaches a frame from the codec's scratch buffer for tests that
    /// interleave frame extraction with further feeds.
    fn owned(f: Option<Frame<'_>>) -> Option<(bool, String)> {
        f.map(|f| match f {
            Frame::Line(s) => (false, s.to_owned()),
            Frame::Data(s) => (true, s.to_owned()),
        })
    }

    #[test]
    fn splits_lines() {
        let mut c = LineCodec::new();
        c.feed(b"EHLO a.com\r\nMAIL FROM:<x@y.com>\r\npartial");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Line("EHLO a.com")));
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Line("MAIL FROM:<x@y.com>"))
        );
        assert_eq!(c.next_frame().unwrap(), None);
        c.feed(b" done\r\n");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Line("partial done")));
    }

    #[test]
    fn data_mode_frames_payload() {
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b"Subject: hi\r\n\r\nbody line\r\n.\r\nQUIT\r\n");
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Data("Subject: hi\r\n\r\nbody line"))
        );
        assert!(!c.in_data_mode());
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Line("QUIT")));
    }

    #[test]
    fn empty_data_payload() {
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b".\r\n");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Data("")));
    }

    #[test]
    fn dot_unstuffing() {
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b"..leading dot\r\nnormal\r\n.\r\n");
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Data(".leading dot\r\nnormal"))
        );
    }

    #[test]
    fn line_length_limit() {
        let mut c = LineCodec::new();
        c.feed(&vec![b'a'; MAX_LINE_LEN + 1]);
        assert_eq!(c.next_frame(), Err(CodecError::LineTooLong));
        // The cap also applies when the oversized line arrives complete
        // with its CRLF in one segment.
        let mut c2 = LineCodec::new();
        let mut big = vec![b'a'; MAX_LINE_LEN + 1];
        big.extend_from_slice(b"\r\n");
        c2.feed(&big);
        assert_eq!(c2.next_frame(), Err(CodecError::LineTooLong));
    }

    #[test]
    fn incremental_data_terminator() {
        // Terminator split across feeds.
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b"body\r\n.");
        assert_eq!(c.next_frame().unwrap(), None);
        c.feed(b"\r\n");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Data("body")));
    }

    #[test]
    fn stuff_round_trips_dotted_lines() {
        let payload = ".starts with dot\nplain\n..double";
        let stuffed = stuff(payload);
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(stuffed.as_bytes());
        match c.next_frame().unwrap() {
            Some(Frame::Data(d)) => {
                assert_eq!(d, ".starts with dot\r\nplain\r\n..double");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scratch_is_reused_across_frames() {
        // Two frames through one codec must not grow new allocations for
        // same-or-smaller lines: the scratch capacity is retained.
        let mut c = LineCodec::new();
        c.feed(b"MAIL FROM:<someone-long@example.com>\r\n");
        let _ = c.next_frame().unwrap();
        let cap = c.scratch.capacity();
        c.feed(b"RCPT TO:<u@example.com>\r\n");
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Line("RCPT TO:<u@example.com>"))
        );
        assert_eq!(c.scratch.capacity(), cap);
    }

    #[test]
    fn unstuff_helper_matches_codec() {
        assert_eq!(unstuff("..x\r\ny\r\n"), ".x\r\ny");
        assert_eq!(unstuff(""), "");
        assert_eq!(unstuff("plain"), "plain");
    }

    /// The framer that preceded line-at-a-time DATA decoding, kept as the
    /// oracle for the equivalence tests. In DATA mode it searches the whole
    /// buffered payload for `CRLF . CRLF` after every feed, then unstuffs
    /// the payload in a second pass.
    struct OldFramer {
        buf: Vec<u8>,
        data: bool,
        max_data: usize,
    }

    impl OldFramer {
        fn new(max_data: usize) -> Self {
            OldFramer {
                buf: Vec::new(),
                data: false,
                max_data,
            }
        }
    }

    fn find_subslice(buf: &[u8], needle: &[u8]) -> Option<usize> {
        buf.windows(needle.len()).position(|w| w == needle)
    }

    fn unstuff_into(raw: &[u8], out: &mut String) {
        out.clear();
        out.reserve(raw.len());
        let mut rest = raw;
        while !rest.is_empty() {
            let (line, remainder) = match find_subslice(rest, b"\r\n") {
                Some(p) => rest.split_at(p + 2),
                None => (rest, &[][..]),
            };
            if let Some(stripped) = line.strip_prefix(b"..") {
                out.push('.');
                push_lossy(out, stripped);
            } else {
                push_lossy(out, line);
            }
            rest = remainder;
        }
        if out.ends_with("\r\n") {
            out.truncate(out.len() - 2);
        }
    }

    /// What the transcript driver needs from a framer; frames come back
    /// owned as `(is_data, text)`.
    trait Framer {
        fn feed(&mut self, bytes: &[u8]);
        fn enter_data_mode(&mut self);
        fn in_data_mode(&self) -> bool;
        fn next_owned(&mut self) -> Result<Option<(bool, String)>, CodecError>;
    }

    impl Framer for LineCodec {
        fn feed(&mut self, bytes: &[u8]) {
            LineCodec::feed(self, bytes);
        }
        fn enter_data_mode(&mut self) {
            LineCodec::enter_data_mode(self);
        }
        fn in_data_mode(&self) -> bool {
            LineCodec::in_data_mode(self)
        }
        fn next_owned(&mut self) -> Result<Option<(bool, String)>, CodecError> {
            self.next_frame().map(owned)
        }
    }

    impl Framer for OldFramer {
        fn feed(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }
        fn enter_data_mode(&mut self) {
            self.data = true;
        }
        fn in_data_mode(&self) -> bool {
            self.data
        }
        fn next_owned(&mut self) -> Result<Option<(bool, String)>, CodecError> {
            if !self.data {
                if let Some(pos) = find_subslice(&self.buf, b"\r\n") {
                    if pos > MAX_LINE_LEN {
                        return Err(CodecError::LineTooLong);
                    }
                    let mut line = String::new();
                    push_lossy(&mut line, &self.buf[..pos]);
                    self.buf.drain(..pos + 2);
                    return Ok(Some((false, line)));
                }
                if self.buf.len() > MAX_LINE_LEN {
                    return Err(CodecError::LineTooLong);
                }
                return Ok(None);
            }
            if self.buf.starts_with(b".\r\n") {
                self.buf.drain(..3);
                self.data = false;
                return Ok(Some((true, String::new())));
            }
            if let Some(pos) = find_subslice(&self.buf, b"\r\n.\r\n") {
                let mut payload = String::new();
                unstuff_into(&self.buf[..pos + 2], &mut payload);
                self.buf.drain(..pos + 5);
                self.data = false;
                return Ok(Some((true, payload)));
            }
            if self.buf.len() > self.max_data {
                return Err(CodecError::DataTooLong);
            }
            Ok(None)
        }
    }

    fn codec_with_max_data(max_data: usize) -> LineCodec {
        LineCodec {
            max_data,
            ..LineCodec::new()
        }
    }

    /// Everything a framer emits for a segmented stream.
    #[derive(Debug, Default, PartialEq)]
    struct Transcript {
        frames: Vec<(bool, String)>,
        /// The first error and the number of bytes fed when it came.
        error: Option<(CodecError, usize)>,
        data_mode_at_end: bool,
    }

    /// Feeds `segments` one at a time, draining frames after each. The
    /// stream starts in DATA mode and re-enters it after every command
    /// line, so payloads and lines alternate.
    fn transcript(f: &mut impl Framer, segments: &[&[u8]]) -> Transcript {
        let mut t = Transcript::default();
        f.enter_data_mode();
        let mut fed = 0;
        'feed: for seg in segments {
            f.feed(seg);
            fed += seg.len();
            loop {
                match f.next_owned() {
                    Ok(Some(frame)) => {
                        if !frame.0 {
                            f.enter_data_mode();
                        }
                        t.frames.push(frame);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        t.error = Some((e, fed));
                        break 'feed;
                    }
                }
            }
        }
        t.data_mode_at_end = f.in_data_mode();
        t
    }

    /// Runs both framers over `segments`, checks that they produce the same
    /// transcript and that the new codec's work was linear, and returns
    /// the transcript.
    fn framed_like_old(max_data: usize, segments: &[&[u8]]) -> Transcript {
        let before = CRLF_SEARCHED.with(|n| n.get());
        let new = transcript(&mut codec_with_max_data(max_data), segments);
        let searched = CRLF_SEARCHED.with(|n| n.get()) - before;
        assert_linear(searched, segments.iter().map(|s| s.len()).sum());
        let old = transcript(&mut OldFramer::new(max_data), segments);
        assert_eq!(new, old, "new codec diverged from the old framer");
        new
    }

    /// The work bound: each byte fed is searched for CRLF at most twice.
    fn assert_linear(searched: usize, fed: usize) {
        assert!(
            searched <= 2 * fed + 16,
            "CRLF search examined {searched} bytes for {fed} fed"
        );
    }

    /// Input pieces: the bytes `a`, CR, LF, `.`, 0xFF (never valid UTF-8),
    /// plus a few multi-byte runs over the same alphabet that make lines,
    /// terminators and stuffed dots common.
    const PIECES: [&[u8]; 9] = [
        b"a",
        b"\r",
        b"\n",
        b".",
        b"\xFF",
        b"\r\n",
        b"\r\n.\r\n",
        b"..",
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    ];

    fn assemble(pieces: &[usize]) -> Vec<u8> {
        pieces
            .iter()
            .flat_map(|&p| PIECES[p].iter().copied())
            .collect()
    }

    /// Cuts `bytes` into segments whose lengths cycle through `cuts`: each
    /// cut `x` gives a length in `1..=2^(x % 13)`, so lengths are roughly
    /// log-uniform between 1 B and 4 KiB.
    fn segment<'a>(bytes: &'a [u8], cuts: &[u32]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut rest = bytes;
        for &x in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let len = 1 + (x as usize >> 4) % (1 << (x % 13));
            let (seg, tail) = rest.split_at(len.min(rest.len()));
            out.push(seg);
            rest = tail;
        }
        out
    }

    fn cuts() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(any::<u32>(), 1..64)
    }

    #[test]
    fn old_framer_equivalence_edge_cases() {
        let cases: [&[&[u8]]; 11] = [
            // Lone dot at the very start: empty payload, then a line.
            &[b".\r\nQUIT\r\n"],
            &[b".", b"\r", b"\nQUIT\r\n"],
            // An empty first line, then the terminator.
            &[b"\r\n.\r\n"],
            // Leading `..`, and a line that is only `..`.
            &[b"..x\r\n..\r\n...\r\n.\r\n"],
            // Bare CR and bare LF are line content, never line ends.
            &[b"a\rb\nc\r\r\n\n.\r\n.\n\r\n.\r\n"],
            &[b"a\r", b"\n.\r", b"\r\n.\r\n"],
            // A dot line that is not alone is content.
            &[b"x\r\n. \r\n.a\r\n .\r\n.\r\n"],
            // Invalid UTF-8 decodes lossily, line by line.
            &[b"\xFF\xFEa\r\n\xE2\x82\r\n\xE2\x82\xAC\r\n.\r\n"],
            &[b"\xE2", b"\x82", b"\xAC\r\n.\r\n"],
            // Pipelined: payload, command, payload in one segment.
            &[b"one\r\n.\r\nMAIL\r\ntwo\r\n.\r\n"],
            // Terminator split at every position.
            &[b"b\r", b"\n", b".", b"\r", b"\n"],
        ];
        for segments in cases {
            framed_like_old(MAX_DATA_LEN, segments);
        }
    }

    #[test]
    fn data_limit_trips_at_the_old_raw_byte_count() {
        // At the real cap: one line of exactly MAX_DATA_LEN raw bytes is
        // still pending; one more byte is too many. With CRLFs and stuffed
        // dots in the payload the cap still counts raw bytes.
        let line = vec![b'a'; MAX_DATA_LEN];
        let t = framed_like_old(MAX_DATA_LEN, &[&line]);
        assert_eq!(t.error, None);
        let t = framed_like_old(MAX_DATA_LEN, &[&line, b"a"]);
        assert_eq!(t.error, Some((CodecError::DataTooLong, MAX_DATA_LEN + 1)));
        let stuffed = b"..aaaaaaaaaaaaa\r\n".repeat(MAX_DATA_LEN / 16);
        assert_eq!(stuffed.len(), MAX_DATA_LEN + MAX_DATA_LEN / 16);
        let t = framed_like_old(MAX_DATA_LEN, &[&stuffed[..MAX_DATA_LEN], b"x"]);
        assert_eq!(t.error, Some((CodecError::DataTooLong, MAX_DATA_LEN + 1)));
        // A terminator in the segment that crosses the cap still frames.
        let t = framed_like_old(MAX_DATA_LEN, &[&line[2..], b"\r\n.\r\n"]);
        assert_eq!((t.frames.len(), t.error), (1, None));
    }

    #[test]
    fn drip_fed_4mib_body_is_linear() {
        let body: String = (0..200_000)
            .map(|i| {
                if i % 7 == 0 {
                    format!(".dotted line {i}\n")
                } else {
                    format!("line of body text {i}\n")
                }
            })
            .collect();
        assert!(body.len() >= 4 << 20);
        let stuffed = stuff(&body);
        let segments: Vec<&[u8]> = stuffed.as_bytes().chunks(1460).collect();
        let before = CRLF_SEARCHED.with(|n| n.get());
        let t = transcript(&mut LineCodec::new(), &segments);
        let searched = CRLF_SEARCHED.with(|n| n.get()) - before;
        assert_linear(searched, stuffed.len());
        let expected = body.replace('\n', "\r\n");
        assert_eq!(t.frames, vec![(true, expected)]);
        assert_eq!(t.error, None);
    }

    #[test]
    fn oversized_line_without_crlf_is_linear_and_rejected() {
        // The bound is checked after every feed, so a framer that rescans
        // the partial line fails after two segments instead of running for
        // minutes.
        let segment = [b'a'; 1460];
        let mut c = LineCodec::new();
        c.enter_data_mode();
        let before = CRLF_SEARCHED.with(|n| n.get());
        let mut fed = 0;
        let error = loop {
            c.feed(&segment);
            fed += segment.len();
            let result = c.next_frame();
            let searched = CRLF_SEARCHED.with(|n| n.get()) - before;
            assert_linear(searched, fed);
            match result {
                Ok(None) => assert!(fed <= MAX_DATA_LEN),
                other => break other,
            }
        };
        assert_eq!(error, Err(CodecError::DataTooLong));
        assert!(fed > MAX_DATA_LEN && fed - segment.len() <= MAX_DATA_LEN);
    }

    proptest! {
        #[test]
        fn frames_match_old_framer(pieces in proptest::collection::vec(0usize..9, 0..2048), cuts in cuts()) {
            let bytes = assemble(&pieces);
            let segments = segment(&bytes, &cuts);
            framed_like_old(MAX_DATA_LEN, &segments);
        }

        #[test]
        fn data_limit_matches_old_framer(max_data in 0usize..300, pieces in proptest::collection::vec(0usize..9, 0..256), cuts in cuts()) {
            let bytes = assemble(&pieces);
            let segments = segment(&bytes, &cuts);
            framed_like_old(max_data, &segments);
        }
    }

    proptest! {
        #[test]
        fn stuffed_payload_round_trips(body in "[ -~]{0,300}") {
            // Normalize: transmission canonicalizes line endings to CRLF.
            let stuffed = stuff(&body);
            let mut c = LineCodec::new();
            c.enter_data_mode();
            c.feed(stuffed.as_bytes());
            let frame = c.next_frame().unwrap().expect("complete payload");
            let expected = body.split('\n')
                .map(|l| l.strip_suffix('\r').unwrap_or(l))
                .collect::<Vec<_>>()
                .join("\r\n");
            prop_assert_eq!(frame, Frame::Data(expected.as_str()));
            prop_assert_eq!(c.pending(), 0);
        }

        #[test]
        fn feed_in_chunks_equals_feed_at_once(body in "[a-z\r\n.]{0,200}", split in 0usize..200) {
            let stuffed = stuff(&body);
            let bytes = stuffed.as_bytes();
            let cut = split.min(bytes.len());
            let mut c1 = LineCodec::new();
            c1.enter_data_mode();
            c1.feed(bytes);
            let mut c2 = LineCodec::new();
            c2.enter_data_mode();
            c2.feed(&bytes[..cut]);
            let early = owned(c2.next_frame().unwrap());
            c2.feed(&bytes[cut..]);
            let f1 = owned(c1.next_frame().unwrap());
            let f2 = match early {
                Some(f) => Some(f),
                None => owned(c2.next_frame().unwrap()),
            };
            prop_assert_eq!(f1, f2);
        }
    }
}
