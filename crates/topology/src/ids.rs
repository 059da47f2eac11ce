//! Strongly-typed index newtypes for network entities.
//!
//! All collections in the workspace are indexed by these IDs; the
//! newtypes prevent mixing, say, a fiber index into an IP-link table —
//! the classic cross-layer bug in WAN tooling.

use serde::Serialize;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
        pub struct $name(pub usize);

        impl $name {
            /// Raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type! {
    /// Index of a site (edge router / PoP) — vertex of the WAN graph.
    SiteId
}
id_type! {
    /// Index of an optical fiber span — the entity that degrades / cuts.
    FiberId
}
id_type! {
    /// Index of an IP-layer link riding on one or more fibers.
    LinkId
}
id_type! {
    /// Index of a flow (source-destination site pair with a demand).
    FlowId
}
id_type! {
    /// Index of a tunnel (an end-to-end path assigned to a flow).
    TunnelId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let s = SiteId::from(3);
        assert_eq!(s.index(), 3);
        assert_eq!(s.to_string(), "SiteId(3)");
        assert_eq!(SiteId(3), s);
    }

    #[test]
    fn ordering() {
        assert!(FiberId(1) < FiberId(2));
        let mut v = vec![LinkId(5), LinkId(1), LinkId(3)];
        v.sort();
        assert_eq!(v, vec![LinkId(1), LinkId(3), LinkId(5)]);
    }
}
