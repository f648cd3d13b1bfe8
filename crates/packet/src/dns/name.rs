//! Domain names: validation, canonicalization, wire encoding, and
//! compression-aware decoding.

use crate::cursor::Reader;
use crate::error::DecodeError;
use std::fmt;
use std::sync::Arc;

/// Maximum length of one label (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a full name in presentation format.
pub const MAX_NAME_LEN: usize = 253;

/// A validated, lower-cased domain name stored in presentation format
/// without the trailing dot (the root is the empty name).
///
/// Decoys embed identifiers as the leftmost label, so label-level access
/// ([`DnsName::labels`], [`DnsName::first_label`]) is first-class here.
///
/// Backed by `Arc<str>`: a decoy's name is decoded once per packet and
/// then cloned into every observer's retention store, capture record and
/// probe order along the route — with a shared allocation those clones
/// are refcount bumps, and the per-hop memory cost of wide observation
/// stays flat.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DnsName(Arc<str>);

/// Why a string failed to validate as a domain name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    Empty,
    TooLong(usize),
    LabelTooLong(String),
    EmptyLabel,
    BadCharacter(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::Empty => write!(f, "empty domain name"),
            NameError::TooLong(n) => write!(f, "domain name too long: {n} > {MAX_NAME_LEN}"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::BadCharacter(c) => write!(f, "bad character {c:?} in domain name"),
        }
    }
}

impl std::error::Error for NameError {}

impl DnsName {
    /// Parse and canonicalize (lowercase, strip one trailing dot).
    ///
    /// Accepts letters, digits, `-` and `_` in labels — underscore is
    /// required for service labels and appears in real query streams the
    /// paper's honeypots log.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(NameError::Empty);
        }
        if s.len() > MAX_NAME_LEN {
            return Err(NameError::TooLong(s.len()));
        }
        let mut canon = String::with_capacity(s.len());
        for (i, label) in s.split('.').enumerate() {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.to_string()));
            }
            for ch in label.chars() {
                if !(ch.is_ascii_alphanumeric() || ch == '-' || ch == '_') {
                    return Err(NameError::BadCharacter(ch));
                }
            }
            if i > 0 {
                canon.push('.');
            }
            // Labels are ASCII-validated above, so per-char lowercasing
            // matches `to_ascii_lowercase` without its per-label String.
            for ch in label.chars() {
                canon.push(ch.to_ascii_lowercase());
            }
        }
        Ok(Self(canon.into()))
    }

    /// The root name (zero labels).
    pub fn root() -> Self {
        Self("".into())
    }

    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The name's shared string: a reference-count bump, not a copy.
    pub fn shared(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }

    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.').filter(|l| !l.is_empty())
    }

    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The leftmost label (where decoy identifiers live).
    pub fn first_label(&self) -> Option<&str> {
        self.labels().next()
    }

    /// True if `self` equals `suffix` or ends with `.suffix`.
    pub fn is_subdomain_of(&self, suffix: &DnsName) -> bool {
        if suffix.is_root() {
            return true;
        }
        self.0 == suffix.0
            || (self.0.len() > suffix.0.len()
                && self.0.ends_with(&*suffix.0)
                && self.0.as_bytes()[self.0.len() - suffix.0.len() - 1] == b'.')
    }

    /// Prepend one label, validating it.
    ///
    /// `self` is already canonical, so only the new label needs checking
    /// and lowercasing — one concatenation, no re-parse. (Decoy planning
    /// calls this once per registered decoy; at paper scale that is ~20M
    /// calls, so the allocation count here is a measured hot spot.)
    pub fn prepend(&self, label: &str) -> Result<Self, NameError> {
        if self.is_root() {
            return Self::parse(label);
        }
        if label.contains('.') {
            // Multi-label prefixes take the full validating parse.
            return Self::parse(&format!("{label}.{}", self.0));
        }
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.to_string()));
        }
        for ch in label.chars() {
            if !(ch.is_ascii_alphanumeric() || ch == '-' || ch == '_') {
                return Err(NameError::BadCharacter(ch));
            }
        }
        let total = label.len() + 1 + self.0.len();
        if total > MAX_NAME_LEN {
            return Err(NameError::TooLong(total));
        }
        let mut canon = String::with_capacity(total);
        for ch in label.chars() {
            canon.push(ch.to_ascii_lowercase());
        }
        canon.push('.');
        canon.push_str(&self.0);
        Ok(Self(canon.into()))
    }

    /// Strip the leftmost label; `None` if already root.
    pub fn parent(&self) -> Option<Self> {
        if self.is_root() {
            return None;
        }
        match self.0.find('.') {
            Some(i) => Some(Self(self.0[i + 1..].into())),
            None => Some(Self::root()),
        }
    }

    /// Wire-encode (uncompressed) onto `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for label in self.labels() {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
    }

    /// Decode a possibly-compressed name. The reader must sit at the name's
    /// first byte within the *full message buffer* (pointers are absolute
    /// message offsets). On return the reader sits just past the name's
    /// in-place bytes (not past any pointer target).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut labels: Vec<String> = Vec::new();
        let mut jumps = 0usize;
        // After following the first pointer, the "real" cursor stays put; we
        // decode the rest from a cloned reader.
        let mut current = *r;
        let mut resume_pos: Option<usize> = None;
        loop {
            let len = current.u8("DNS name label length")?;
            match len {
                0 => break,
                l if l & 0xc0 == 0xc0 => {
                    let lo = current.u8("DNS compression pointer")?;
                    let pointer_offset = current.position() - 2;
                    let target = (usize::from(l & 0x3f) << 8) | usize::from(lo);
                    if resume_pos.is_none() {
                        resume_pos = Some(current.position());
                    }
                    jumps += 1;
                    // Well-formed compression always points strictly earlier
                    // in the message; the jump cap bounds pathological chains
                    // that bounce between prior offsets.
                    if target >= pointer_offset || jumps > 32 {
                        return Err(DecodeError::CompressionLoop);
                    }
                    current.seek(target)?;
                }
                l if l & 0xc0 != 0 => {
                    return Err(DecodeError::Unsupported {
                        what: "DNS label type",
                        value: u32::from(l >> 6),
                    });
                }
                l => {
                    let raw = current.bytes("DNS label", usize::from(l))?;
                    let label = std::str::from_utf8(raw)
                        .map_err(|_| DecodeError::malformed("DNS label", "not UTF-8"))?;
                    labels.push(label.to_ascii_lowercase());
                    if labels.len() > 128 {
                        return Err(DecodeError::malformed("DNS name", "too many labels"));
                    }
                }
            }
        }
        match resume_pos {
            Some(p) => r.seek(p)?,
            None => r.seek(current.position())?,
        }
        if labels.is_empty() {
            return Ok(Self::root());
        }
        Self::parse(&labels.join("."))
            .map_err(|e| DecodeError::malformed("DNS name", e.to_string()))
    }
}

// Hand-written (instead of derived) so the `Arc<str>` interior still
// serializes as a plain string — the shape every committed bundle and
// journal already uses. Deserialization revalidates through `parse`.
impl serde::Serialize for DnsName {
    fn serialize_content(&self) -> serde::Content {
        serde::Content::Str(self.0.to_string())
    }
}

impl serde::Deserialize for DnsName {
    fn deserialize_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        match content {
            serde::Content::Str(s) if s.is_empty() => Ok(Self::root()),
            serde::Content::Str(s) => {
                Self::parse(s).map_err(|e| serde::DeError::new(e.to_string()))
            }
            other => Err(serde::DeError::mismatch("domain name string", other)),
        }
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            f.write_str(".")
        } else {
            f.write_str(&self.0)
        }
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

impl std::str::FromStr for DnsName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_lowercases() {
        let n = DnsName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(n.as_str(), "www.example.com");
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.first_label(), Some("www"));
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(DnsName::parse(""), Err(NameError::Empty));
        assert_eq!(DnsName::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(
            DnsName::parse("a b.com"),
            Err(NameError::BadCharacter(' '))
        ));
        let long_label = "a".repeat(64);
        assert!(matches!(
            DnsName::parse(&format!("{long_label}.com")),
            Err(NameError::LabelTooLong(_))
        ));
        let long_name = format!("{}.com", "a.".repeat(130));
        assert!(DnsName::parse(&long_name).is_err());
    }

    #[test]
    fn subdomain_checks() {
        let zone = DnsName::parse("experiment.example").unwrap();
        let sub = DnsName::parse("abc123.www.experiment.example").unwrap();
        let other = DnsName::parse("notexperiment.example").unwrap();
        assert!(sub.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!other.is_subdomain_of(&zone));
        assert!(sub.is_subdomain_of(&DnsName::root()));
    }

    #[test]
    fn prepend_and_parent() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let full = zone.prepend("g6d8jjkut5obc4-9982").unwrap();
        assert_eq!(full.as_str(), "g6d8jjkut5obc4-9982.www.experiment.example");
        assert_eq!(full.parent().unwrap(), zone);
        assert_eq!(
            DnsName::parse("com").unwrap().parent().unwrap(),
            DnsName::root()
        );
        assert_eq!(DnsName::root().parent(), None);
    }

    #[test]
    fn wire_round_trip_uncompressed() {
        let n = DnsName::parse("mail.example.org").unwrap();
        let mut buf = Vec::new();
        n.encode(&mut buf);
        assert_eq!(buf[0], 4); // "mail"
        let mut r = Reader::new(&buf);
        assert_eq!(DnsName::decode(&mut r).unwrap(), n);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn decodes_compressed_names() {
        // Message layout: name "example.com" at offset 0, then a name
        // "www" + pointer to offset 0 at offset 13.
        let mut buf = Vec::new();
        DnsName::parse("example.com").unwrap().encode(&mut buf);
        let second_at = buf.len();
        buf.push(3);
        buf.extend_from_slice(b"www");
        buf.push(0xc0);
        buf.push(0);
        let mut r = Reader::new(&buf);
        r.seek(second_at).unwrap();
        let n = DnsName::decode(&mut r).unwrap();
        assert_eq!(n.as_str(), "www.example.com");
        assert_eq!(r.remaining(), 0, "reader resumes after the pointer");
    }

    #[test]
    fn rejects_pointer_loop() {
        // A pointer that points at itself.
        let buf = [0xc0u8, 0x00];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            DnsName::decode(&mut r),
            Err(DecodeError::CompressionLoop) | Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_mutual_pointer_loop() {
        // offset 0 -> pointer to 2; offset 2 -> pointer to 0.
        let buf = [0xc0u8, 0x02, 0xc0, 0x00];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            DnsName::decode(&mut r),
            Err(DecodeError::CompressionLoop)
        ));
    }

    #[test]
    fn root_round_trips() {
        let mut buf = Vec::new();
        DnsName::root().encode(&mut buf);
        assert_eq!(buf, vec![0]);
        let mut r = Reader::new(&buf);
        assert!(DnsName::decode(&mut r).unwrap().is_root());
    }

    #[test]
    fn underscore_labels_allowed() {
        let n = DnsName::parse("_dns.resolver.arpa").unwrap();
        assert_eq!(n.first_label(), Some("_dns"));
    }
}
