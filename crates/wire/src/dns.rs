//! DNS messages (RFC 1035, AAAA per RFC 3596).
//!
//! This codec backs three distinct behaviours from the paper:
//!
//! 1. the hitlist's UDP/53 probe (`AAAA? www.google.com`),
//! 2. the Great Firewall's injected answers — parseable, *valid-looking*
//!    responses carrying A records or Teredo AAAA records that ZMap счёт
//!    counts as success, and
//! 3. the controlled-domain validation experiment (unique-hash subdomains,
//!    REFUSED/SERVFAIL status codes, referrals).
//!
//! Names are encoded without compression (queries and injected answers are
//! tiny); compression pointers are *decoded* for completeness.

use sixdust_addr::Addr;

use crate::WireError;

/// DNS response codes sixdust distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// NOERROR (0).
    NoError,
    /// FORMERR (1).
    FormErr,
    /// SERVFAIL (2).
    ServFail,
    /// NXDOMAIN (3).
    NxDomain,
    /// NOTIMP (4).
    NotImp,
    /// REFUSED (5) — what most remaining UDP/53 responders return in the
    /// paper's validation experiment (93.8 % "valid responses with status
    /// codes indicating errors").
    Refused,
    /// Any other code, preserved.
    Other(u8),
}

impl Rcode {
    fn value(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0xf,
        }
    }

    fn from_value(v: u8) -> Rcode {
        match v & 0xf {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Record types sixdust encodes/decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrType {
    /// A (1).
    A,
    /// NS (2).
    Ns,
    /// CNAME (5).
    Cname,
    /// MX (15).
    Mx,
    /// TXT (16).
    Txt,
    /// AAAA (28).
    Aaaa,
}

impl RrType {
    fn value(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
        }
    }

    fn from_value(v: u16) -> Option<RrType> {
        Some(match v {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            _ => return None,
        })
    }
}

/// The data of a resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// An IPv4 address — the GFW's early-era injections put these in
    /// response to AAAA queries.
    A(u32),
    /// An IPv6 address.
    Aaaa(Addr),
    /// A delegation name server.
    Ns(String),
    /// Mail exchanger: preference and host.
    Mx(u16, String),
    /// Canonical name.
    Cname(String),
    /// Freeform text.
    Txt(String),
}

impl Rdata {
    fn rr_type(&self) -> RrType {
        match self {
            Rdata::A(_) => RrType::A,
            Rdata::Aaaa(_) => RrType::Aaaa,
            Rdata::Ns(_) => RrType::Ns,
            Rdata::Mx(..) => RrType::Mx,
            Rdata::Cname(_) => RrType::Cname,
            Rdata::Txt(_) => RrType::Txt,
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: String,
    /// Time to live.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: Rdata,
}

/// A question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub qname: String,
    /// Queried type.
    pub qtype: RrType,
}

/// A DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// Response bit.
    pub is_response: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (referrals in the validation experiment).
    pub authority: Vec<Record>,
}

impl DnsMessage {
    /// An `AAAA?` query, the shape of the hitlist's UDP/53 probe.
    pub fn aaaa_query(id: u16, name: &str) -> DnsMessage {
        DnsMessage {
            id,
            is_response: false,
            rd: true,
            ra: false,
            aa: false,
            rcode: Rcode::NoError,
            questions: vec![Question { qname: name.to_string(), qtype: RrType::Aaaa }],
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }

    /// A response skeleton answering `query`.
    pub fn response_to(query: &DnsMessage, rcode: Rcode) -> DnsMessage {
        DnsMessage {
            id: query.id,
            is_response: true,
            rd: query.rd,
            ra: true,
            aa: false,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }

    /// The first question's name, if any.
    pub fn qname(&self) -> Option<&str> {
        self.questions.first().map(|q| q.qname.as_str())
    }

    /// Serializes the message.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        b.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.aa {
            flags |= 0x0400;
        }
        if self.rd {
            flags |= 0x0100;
        }
        if self.ra {
            flags |= 0x0080;
        }
        flags |= u16::from(self.rcode.value());
        b.extend_from_slice(&flags.to_be_bytes());
        b.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        b.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        b.extend_from_slice(&(self.authority.len() as u16).to_be_bytes());
        b.extend_from_slice(&0u16.to_be_bytes()); // no additional section
        for q in &self.questions {
            encode_name(&mut b, &q.qname);
            b.extend_from_slice(&q.qtype.value().to_be_bytes());
            b.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        for r in self.answers.iter().chain(self.authority.iter()) {
            encode_record(&mut b, r);
        }
        b
    }

    /// Parses a message.
    pub fn parse(bytes: &[u8]) -> Result<DnsMessage, WireError> {
        if bytes.len() < 12 {
            return Err(WireError::Truncated);
        }
        let id = u16::from_be_bytes([bytes[0], bytes[1]]);
        let flags = u16::from_be_bytes([bytes[2], bytes[3]]);
        let qd = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let an = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
        let ns = u16::from_be_bytes([bytes[8], bytes[9]]) as usize;
        let mut pos = 12;
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let (qname, next) = decode_name(bytes, pos)?;
            pos = next;
            if bytes.len() < pos + 4 {
                return Err(WireError::Truncated);
            }
            let qtype_raw = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
            let qtype =
                RrType::from_value(qtype_raw).ok_or(WireError::Malformed("unknown qtype"))?;
            pos += 4;
            questions.push(Question { qname, qtype });
        }
        let mut answers = Vec::with_capacity(an);
        for _ in 0..an {
            let (r, next) = decode_record(bytes, pos)?;
            pos = next;
            answers.push(r);
        }
        let mut authority = Vec::with_capacity(ns);
        for _ in 0..ns {
            let (r, next) = decode_record(bytes, pos)?;
            pos = next;
            authority.push(r);
        }
        Ok(DnsMessage {
            id,
            is_response: flags & 0x8000 != 0,
            aa: flags & 0x0400 != 0,
            rd: flags & 0x0100 != 0,
            ra: flags & 0x0080 != 0,
            rcode: Rcode::from_value(flags as u8),
            questions,
            answers,
            authority,
        })
    }
}

fn encode_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        debug_assert!(bytes.len() < 64, "label too long: {label}");
        out.push(bytes.len() as u8);
        out.extend_from_slice(bytes);
    }
    out.push(0);
}

fn decode_name(bytes: &[u8], mut pos: usize) -> Result<(String, usize), WireError> {
    let mut labels: Vec<String> = Vec::new();
    let mut jumped = false;
    let mut end = pos;
    let mut hops = 0;
    loop {
        let len = *bytes.get(pos).ok_or(WireError::Truncated)? as usize;
        if len == 0 {
            if !jumped {
                end = pos + 1;
            }
            break;
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            let lo = *bytes.get(pos + 1).ok_or(WireError::Truncated)? as usize;
            let target = ((len & 0x3f) << 8) | lo;
            if !jumped {
                end = pos + 2;
            }
            if target >= pos {
                return Err(WireError::Malformed("forward compression pointer"));
            }
            pos = target;
            jumped = true;
            hops += 1;
            if hops > 16 {
                return Err(WireError::Malformed("compression loop"));
            }
            continue;
        }
        if len >= 64 {
            return Err(WireError::Malformed("label length"));
        }
        let label = bytes.get(pos + 1..pos + 1 + len).ok_or(WireError::Truncated)?;
        labels.push(
            std::str::from_utf8(label).map_err(|_| WireError::Malformed("label utf8"))?.to_string(),
        );
        pos += 1 + len;
        if !jumped {
            end = pos + 1;
        }
    }
    Ok((labels.join("."), end))
}

fn encode_record(out: &mut Vec<u8>, r: &Record) {
    encode_name(out, &r.name);
    out.extend_from_slice(&r.rdata.rr_type().value().to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
    out.extend_from_slice(&r.ttl.to_be_bytes());
    let mut rdata = Vec::new();
    match &r.rdata {
        Rdata::A(v4) => rdata.extend_from_slice(&v4.to_be_bytes()),
        Rdata::Aaaa(a6) => rdata.extend_from_slice(&a6.0.to_be_bytes()),
        Rdata::Ns(n) | Rdata::Cname(n) => encode_name(&mut rdata, n),
        Rdata::Mx(pref, n) => {
            rdata.extend_from_slice(&pref.to_be_bytes());
            encode_name(&mut rdata, n);
        }
        Rdata::Txt(t) => {
            let b = t.as_bytes();
            debug_assert!(b.len() < 256);
            rdata.push(b.len() as u8);
            rdata.extend_from_slice(b);
        }
    }
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(&rdata);
}

fn decode_record(bytes: &[u8], pos: usize) -> Result<(Record, usize), WireError> {
    let (name, mut pos) = decode_name(bytes, pos)?;
    if bytes.len() < pos + 10 {
        return Err(WireError::Truncated);
    }
    let rtype = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
    let ttl = u32::from_be_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
    let rdlen = u16::from_be_bytes([bytes[pos + 8], bytes[pos + 9]]) as usize;
    pos += 10;
    let rdata_bytes = bytes.get(pos..pos + rdlen).ok_or(WireError::Truncated)?;
    let rtype = RrType::from_value(rtype).ok_or(WireError::Malformed("unknown rtype"))?;
    let rdata = match rtype {
        RrType::A => {
            if rdlen != 4 {
                return Err(WireError::Malformed("A rdlength"));
            }
            Rdata::A(u32::from_be_bytes(rdata_bytes.try_into().expect("4 bytes")))
        }
        RrType::Aaaa => {
            if rdlen != 16 {
                return Err(WireError::Malformed("AAAA rdlength"));
            }
            Rdata::Aaaa(Addr(u128::from_be_bytes(rdata_bytes.try_into().expect("16 bytes"))))
        }
        RrType::Ns => Rdata::Ns(decode_name(bytes, pos)?.0),
        RrType::Cname => Rdata::Cname(decode_name(bytes, pos)?.0),
        RrType::Mx => {
            if rdlen < 3 {
                return Err(WireError::Malformed("MX rdlength"));
            }
            let pref = u16::from_be_bytes([rdata_bytes[0], rdata_bytes[1]]);
            Rdata::Mx(pref, decode_name(bytes, pos + 2)?.0)
        }
        RrType::Txt => {
            if rdlen == 0 || rdata_bytes.len() < 1 + rdata_bytes[0] as usize {
                return Err(WireError::Malformed("TXT rdlength"));
            }
            let n = rdata_bytes[0] as usize;
            Rdata::Txt(
                std::str::from_utf8(&rdata_bytes[1..1 + n])
                    .map_err(|_| WireError::Malformed("TXT utf8"))?
                    .to_string(),
            )
        }
    };
    Ok((Record { name, ttl, rdata }, pos + rdlen))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::aaaa_query(0x4242, "www.google.com");
        let back = DnsMessage::parse(&q.to_bytes()).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.qname(), Some("www.google.com"));
        assert!(!back.is_response);
    }

    #[test]
    fn response_with_answers_roundtrip() {
        let q = DnsMessage::aaaa_query(7, "example.org");
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(Record {
            name: "example.org".into(),
            ttl: 300,
            rdata: Rdata::Aaaa("2001:db8::42".parse().unwrap()),
        });
        r.answers.push(Record {
            name: "example.org".into(),
            ttl: 300,
            rdata: Rdata::A(0x5db8_d822),
        });
        let back = DnsMessage::parse(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
        assert!(back.is_response);
        assert_eq!(back.id, 7);
    }

    #[test]
    fn ns_mx_cname_txt_roundtrip() {
        let q = DnsMessage::aaaa_query(1, "x.test");
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(Record {
            name: "x.test".into(),
            ttl: 60,
            rdata: Rdata::Ns("ns1.x.test".into()),
        });
        r.answers.push(Record {
            name: "x.test".into(),
            ttl: 60,
            rdata: Rdata::Mx(10, "mail.x.test".into()),
        });
        r.answers.push(Record {
            name: "www.x.test".into(),
            ttl: 60,
            rdata: Rdata::Cname("x.test".into()),
        });
        r.answers.push(Record {
            name: "x.test".into(),
            ttl: 60,
            rdata: Rdata::Txt("v=spf1 -all".into()),
        });
        assert_eq!(DnsMessage::parse(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn referral_in_authority() {
        let q = DnsMessage::aaaa_query(2, "sub.ours.test");
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.authority.push(Record {
            name: "ours.test".into(),
            ttl: 3600,
            rdata: Rdata::Ns("a.root-servers.net".into()),
        });
        let back = DnsMessage::parse(&r.to_bytes()).unwrap();
        assert_eq!(back.authority.len(), 1);
        assert!(back.answers.is_empty());
    }

    #[test]
    fn rcodes_roundtrip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
            Rcode::Other(9),
        ] {
            let q = DnsMessage::aaaa_query(1, "a.b");
            let r = DnsMessage::response_to(&q, rc);
            assert_eq!(DnsMessage::parse(&r.to_bytes()).unwrap().rcode, rc);
        }
    }

    #[test]
    fn compression_pointer_decoded() {
        // Hand-built response: question www.x.test, answer name is a
        // pointer back to the question name at offset 12.
        let q = DnsMessage::aaaa_query(3, "www.x.test");
        let mut bytes = q.to_bytes();
        // Patch ANCOUNT to 1.
        bytes[6..8].copy_from_slice(&1u16.to_be_bytes());
        bytes[2] |= 0x80; // QR
                          // Append record with compressed name.
        bytes.extend_from_slice(&[0xc0, 12]); // pointer to offset 12
        bytes.extend_from_slice(&28u16.to_be_bytes()); // AAAA
        bytes.extend_from_slice(&1u16.to_be_bytes()); // IN
        bytes.extend_from_slice(&300u32.to_be_bytes());
        bytes.extend_from_slice(&16u16.to_be_bytes());
        bytes.extend_from_slice(&"2001:db8::7".parse::<Addr>().unwrap().0.to_be_bytes());
        let back = DnsMessage::parse(&bytes).unwrap();
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.answers[0].name, "www.x.test");
        assert_eq!(back.answers[0].rdata, Rdata::Aaaa("2001:db8::7".parse().unwrap()));
    }

    #[test]
    fn malformed_rejected() {
        assert!(DnsMessage::parse(&[0; 5]).is_err());
        // Forward pointer must be rejected.
        let mut bytes = DnsMessage::aaaa_query(1, "a").to_bytes();
        bytes[12] = 0xc0;
        bytes[13] = 0xff;
        assert!(DnsMessage::parse(&bytes).is_err());
    }

    #[test]
    fn root_name() {
        let q = DnsMessage::aaaa_query(5, "");
        let back = DnsMessage::parse(&q.to_bytes()).unwrap();
        assert_eq!(back.qname(), Some(""));
    }
}
