//! Requests encoded once during set-up, and the answer checks run on every
//! response: byte-level for `deploy_hot`'s hits (no JSON work on the timed
//! path), a full decode for the miss workloads.

use std::ops::Range;

use wtq_server::wire::{self, write_json_string, SPLICE_ENVELOPE_TAIL};
use wtq_server::{
    ExplainBatchBody, ExplainBody, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope,
    WireExplanation, PROTOCOL_VERSION,
};

use crate::workload::{Inputs, Question, Request, TOP_K};

/// Request ids are fixed-width, so one pre-encoded frame serves every send
/// of a request: the timed path only rewrites the id digits.
pub const ID_BASE: u64 = 100_000_000;
const ID_DIGITS: usize = 9;
/// The rendering every envelope starts with, up to its id.
const ENVELOPE_PREFIX: &[u8] = b"{\"v\":1,\"id\":";

/// One request's frame (length prefix included) with a patchable id.
#[derive(Debug, Clone)]
pub struct Template {
    frame: Vec<u8>,
    id_at: usize,
}

impl Template {
    /// Encode `body` as a framed request envelope.
    pub fn encode(body: RequestBody) -> Template {
        let envelope = RequestEnvelope {
            v: PROTOCOL_VERSION,
            id: ID_BASE,
            body,
        };
        let json = serde_json::to_string(&envelope).expect("request envelopes serialize");
        let marker = format!("\"id\":{ID_BASE}");
        let id_at = json.find(&marker).expect("envelope renders its id") + marker.len() - ID_DIGITS;
        let frame = wire::encode_frame(json.as_bytes()).expect("request fits a frame");
        Template {
            frame,
            id_at: id_at + 4,
        }
    }

    /// The frame carrying `id` (which must have [`ID_DIGITS`] digits).
    pub fn with_id<'b>(&self, id: u64, out: &'b mut Vec<u8>) -> &'b [u8] {
        out.clear();
        out.extend_from_slice(&self.frame);
        put_digits(&mut out[self.id_at..self.id_at + ID_DIGITS], id);
        out
    }
}

fn put_digits(out: &mut [u8], mut n: u64) {
    for slot in out.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// Every request frame of a run, encoded during set-up.
pub struct Templates {
    /// Indexed by request start: one per question on the single-question
    /// workloads, one per batch on `annotate_batch`.
    by_start: Vec<Option<Template>>,
}

impl Templates {
    /// Encode every request `inputs` can send.
    pub fn encode(inputs: &Inputs) -> Templates {
        let mut by_start = vec![None; inputs.questions.len()];
        let requests = inputs.warmup.iter().copied().chain(inputs.timed_requests());
        for request in requests {
            let slot = &mut by_start[request.start as usize];
            if slot.is_none() {
                *slot = Some(Template::encode(request_body(inputs, request)));
            }
        }
        Templates { by_start }
    }

    /// The frame template of `request`.
    pub fn get(&self, request: Request) -> &Template {
        self.by_start[request.start as usize]
            .as_ref()
            .expect("every request is encoded in set-up")
    }
}

fn explain_body(question: &Question) -> ExplainBody {
    ExplainBody {
        question: question.text.clone(),
        table: question.table.clone(),
        top_k: Some(TOP_K),
    }
}

/// The wire body of `request`: `Explain` for one question, `ExplainBatch`
/// for several.
fn request_body(inputs: &Inputs, request: Request) -> RequestBody {
    let questions = &inputs.questions[request.questions()];
    if questions.len() == 1 {
        RequestBody::Explain(explain_body(&questions[0]))
    } else {
        RequestBody::ExplainBatch(ExplainBatchBody {
            requests: questions.iter().map(explain_body).collect(),
        })
    }
}

/// 64-bit digest of a byte string (FxHash over 8-byte words): cheap enough
/// for the hit path, where a response is checked without parsing it.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut hash = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = (hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
    for &byte in words.remainder() {
        hash = (hash.rotate_left(5) ^ byte as u64).wrapping_mul(K);
    }
    hash
}

/// End (exclusive) of the JSON array or object opening at `start`,
/// skipping brackets inside strings.
pub fn json_value_end(bytes: &[u8], start: usize) -> Option<usize> {
    if !matches!(bytes.get(start), Some(b'[') | Some(b'{')) {
        return None;
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (offset, &byte) in bytes[start..].iter().enumerate() {
        if in_string {
            match byte {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match byte {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(start + offset + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte range of the `candidates` array of the explanation of `question`,
/// searching `payload` from `from`.
fn candidates_span(payload: &[u8], question: &Question, from: usize) -> Option<Range<usize>> {
    let mut needle = b"\"question\":".to_vec();
    write_json_string(&mut needle, &question.text);
    needle.extend_from_slice(b",\"table\":");
    write_json_string(&mut needle, &question.table);
    needle.extend_from_slice(b",\"candidates\":");
    let at = payload
        .get(from..)?
        .windows(needle.len())
        .position(|window| window == needle.as_slice())?
        + from
        + needle.len();
    Some(at..json_value_end(payload, at)?)
}

/// What a `deploy_hot` hit must look like: the prewarm response of the
/// same question, byte for byte, apart from the id.
#[derive(Debug, Clone)]
pub struct HitExpectation {
    /// Everything between the id digits and the candidates array.
    head: Vec<u8>,
    /// Length and digest of the candidates array.
    body_len: usize,
    body_digest: u64,
}

impl HitExpectation {
    /// The expectation set by a prewarm (miss) response to `question`.
    pub fn from_prewarm(payload: &[u8], question: &Question) -> Result<HitExpectation, String> {
        let span = candidates_span(payload, question, 0)
            .ok_or("prewarm response carries no candidates array")?;
        let id_end = ENVELOPE_PREFIX.len() + ID_DIGITS;
        if !payload.starts_with(ENVELOPE_PREFIX) || &payload[span.end..] != SPLICE_ENVELOPE_TAIL {
            return Err("prewarm response is not a plain explanation envelope".into());
        }
        Ok(HitExpectation {
            head: payload[id_end..span.start].to_vec(),
            body_len: span.len(),
            body_digest: digest(&payload[span]),
        })
    }

    /// Check a hit response to request `id` without parsing it.
    pub fn check(&self, id: u64, payload: &[u8]) -> Result<(), String> {
        let id_end = ENVELOPE_PREFIX.len() + ID_DIGITS;
        let body_start = id_end + self.head.len();
        let body_end = body_start + self.body_len;
        if payload.len() != body_end + SPLICE_ENVELOPE_TAIL.len() {
            return Err(format!(
                "hit response is {} bytes, its prewarm response implies {}",
                payload.len(),
                body_end + SPLICE_ENVELOPE_TAIL.len()
            ));
        }
        let mut digits = [0u8; ID_DIGITS];
        put_digits(&mut digits, id);
        if payload[ENVELOPE_PREFIX.len()..id_end] != digits {
            return Err("id mismatch".into());
        }
        if !payload.starts_with(ENVELOPE_PREFIX)
            || payload[id_end..body_start] != self.head[..]
            || &payload[body_end..] != SPLICE_ENVELOPE_TAIL
        {
            return Err("hit envelope differs from its prewarm response".into());
        }
        if digest(&payload[body_start..body_end]) != self.body_digest {
            return Err("hit candidates differ from the prewarm response".into());
        }
        Ok(())
    }
}

/// Per-phase outcome of the answer checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Questions those requests answered.
    pub questions_ok: u64,
    /// Scored questions (the fixed set every run completes) …
    pub scored: u64,
    /// … whose top-1 answer equals the gold answer …
    pub top1_correct: u64,
    /// … and whose gold answer is among the top-k.
    pub gold_in_topk: u64,
    /// One line per failed request: the reason and its question.
    pub failures: Vec<String>,
    /// Raw candidates bytes kept for the in-process byte comparison.
    pub kept: Vec<(usize, Vec<u8>)>,
}

impl Tally {
    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.questions_ok += other.questions_ok;
        self.scored += other.scored;
        self.top1_correct += other.top1_correct;
        self.gold_in_topk += other.gold_in_topk;
        self.failures.extend(other.failures);
        self.kept.extend(other.kept);
    }

    /// Count `request` as failed for `reason`.
    pub fn fail(&mut self, inputs: &Inputs, request: Request, reason: &str) {
        let question = &inputs.questions[request.start as usize];
        self.failures.push(format!(
            "{reason} (question {:?} on table {}{})",
            question.text,
            question.table,
            if request.len > 1 {
                ", first of its batch"
            } else {
                ""
            }
        ));
    }

    fn score(&mut self, question: &Question, explanation: &WireExplanation) {
        self.scored += 1;
        let answers: Vec<_> = explanation.candidates.iter().map(|c| &c.answer).collect();
        if answers.first() == Some(&&question.gold) {
            self.top1_correct += 1;
        }
        if answers.contains(&&question.gold) {
            self.gold_in_topk += 1;
        }
    }
}

/// The answer checks of one run.
pub struct Checker<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// `deploy_hot`: the expectation of each pooled question.
    pub hits: &'a [Option<HitExpectation>],
    /// Questions whose raw candidates bytes are kept for the in-process
    /// comparison.
    pub keep: &'a std::collections::HashSet<usize>,
}

impl Checker<'_> {
    /// Check the response `payload` to `request` sent with `id`; failures
    /// and, when `scored`, answer accuracy land in `tally`.
    pub fn check(
        &self,
        request: Request,
        id: u64,
        payload: &[u8],
        scored: bool,
        tally: &mut Tally,
    ) {
        let result = match self.hits.get(request.start as usize) {
            Some(Some(expected)) if request.len == 1 => expected.check(id, payload),
            _ => self.check_decoded(request, id, payload, scored, tally),
        };
        match result {
            Ok(()) => {
                tally.questions_ok += request.len as u64;
            }
            Err(reason) => tally.fail(self.inputs, request, &reason),
        }
    }

    fn check_decoded(
        &self,
        request: Request,
        id: u64,
        payload: &[u8],
        scored: bool,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let envelope = decode(payload)?;
        if envelope.id != id {
            return Err(format!("id mismatch: sent {id}, got {}", envelope.id));
        }
        let explanations = match envelope.body {
            ResponseBody::Explanation(explanation) if request.len == 1 => vec![explanation],
            ResponseBody::Batch(batch) if request.len > 1 => batch.explanations,
            ResponseBody::Error(error) => return Err(format!("error body: {error}")),
            _ => return Err("unexpected response body".into()),
        };
        if explanations.len() != request.len as usize {
            return Err(format!(
                "{} explanations for {} questions",
                explanations.len(),
                request.len
            ));
        }
        let mut from = 0;
        for (index, explanation) in request.questions().zip(&explanations) {
            let question = &self.inputs.questions[index];
            check_explanation(question, explanation)?;
            if self.keep.contains(&index) {
                let span = candidates_span(payload, question, from)
                    .ok_or("candidates array not found in the raw response")?;
                from = span.end;
                tally.kept.push((index, payload[span].to_vec()));
            }
        }
        if scored {
            for (index, explanation) in request.questions().zip(&explanations) {
                tally.score(&self.inputs.questions[index], explanation);
            }
        }
        Ok(())
    }
}

/// Decode a response frame's payload.
fn decode(payload: &[u8]) -> Result<ResponseEnvelope, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|err| format!("undecodable response: {err}"))
}

/// The per-question checks: echoed question and table, no error, at most
/// top-k candidates.
fn check_explanation(question: &Question, explanation: &WireExplanation) -> Result<(), String> {
    if explanation.question != question.text || explanation.table != question.table {
        return Err("response answers another question".into());
    }
    if let Some(error) = &explanation.error {
        return Err(format!("explanation error: {error}"));
    }
    if explanation.candidates.len() > TOP_K {
        return Err(format!(
            "{} candidates, top_k is {TOP_K}",
            explanation.candidates.len()
        ));
    }
    Ok(())
}
