//! A small JSON value for reports: built in code, printed compactly.

use std::fmt::{self, Display, Write};

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, printed with every digit Rust's shortest round-trip
    /// formatting gives; non-finite numbers print as `null`.
    Num(f64),
    /// An integer.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<J>),
    /// An object.
    Obj(Vec<(String, J)>),
}

impl J {
    /// Sets `key` in an object (replacing an earlier value).
    pub fn insert(&mut self, key: &str, value: J) {
        if let J::Obj(entries) = self {
            match entries.iter_mut().find(|(k, _)| k == key) {
                Some(e) => e.1 = value,
                None => entries.push((key.to_owned(), value)),
            }
        }
    }
}

/// Builds a [`J::Obj`]: `jobj!({ "a": 1.0, "b": "x" })`.
#[macro_export]
macro_rules! jobj {
    ({ $($k:literal : $v:expr),* $(,)? }) => {
        $crate::json::J::Obj(vec![$(($k.to_string(), $crate::json::J::from($v))),*])
    };
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for J {
            fn from(v: $t) -> J {
                J::Int(v as i128)
            }
        }
    )*};
}
from_int!(u8, u32, u64, usize, i64);

impl From<f64> for J {
    fn from(v: f64) -> J {
        J::Num(v)
    }
}
impl From<bool> for J {
    fn from(v: bool) -> J {
        J::Bool(v)
    }
}
impl From<&str> for J {
    fn from(v: &str) -> J {
        J::Str(v.to_owned())
    }
}
impl From<String> for J {
    fn from(v: String) -> J {
        J::Str(v)
    }
}
impl From<&String> for J {
    fn from(v: &String) -> J {
        J::Str(v.clone())
    }
}
impl<T: Into<J>> From<Vec<T>> for J {
    fn from(v: Vec<T>) -> J {
        J::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<J>> From<Option<T>> for J {
    fn from(v: Option<T>) -> J {
        v.map_or(J::Null, Into::into)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Int(i) => write!(f, "{i}"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            J::Obj(entries) => {
                f.write_char('{')?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_compact_json() {
        let v = jobj!({ "a": 1.5, "b": "q\"x", "c": vec![1u64, 2], "d": Option::<u64>::None, "e": 3.0 });
        assert_eq!(
            v.to_string(),
            r#"{"a":1.5,"b":"q\"x","c":[1,2],"d":null,"e":3.0}"#
        );
        assert_eq!(J::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(J::Num(0.1234567891234).to_string(), "0.1234567891234");
    }
}
