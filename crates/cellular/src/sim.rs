//! SIM profiles and Remote SIM Provisioning.
//!
//! eSIM technology is what makes the thick-MNA model possible (§2): an
//! embedded UICC can hold several downloadable *profiles*, each tying the
//! device to a different operator, switched without physical swapping. We
//! model the two pieces that matter to the campaigns:
//!
//! * [`SimProfile`] — one subscription (physical card or eSIM profile),
//!   with its IMSI, issuing operator and data-roaming flag;
//! * [`Smdp`] — the SM-DP+ role from the GSMA RSP architecture: an activation
//!   code is redeemed for a profile download. The marketplace layer
//!   (`roam-core`) sits in front of this, the way Airalo's store front sits
//!   in front of its b-MNOs' provisioning systems.

use crate::ident::{Imsi, ImsiRange};
use crate::mno::MnoId;
use std::collections::HashMap;

/// Physical card or downloadable profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimType {
    /// A plastic SIM bought locally.
    Physical,
    /// An eSIM profile delivered via RSP.
    Esim,
}

/// One subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimProfile {
    /// Physical or eSIM.
    pub sim_type: SimType,
    /// Subscriber identity (determines the home PLMN).
    pub imsi: Imsi,
    /// The operator that issued the profile — the **b-MNO** in the paper's
    /// terminology.
    pub issuer: MnoId,
}

/// The SM-DP+ (profile preparation/delivery) role: operators deposit IMSI
/// ranges, activation codes are redeemed for concrete profiles.
#[derive(Debug, Default)]
pub struct Smdp {
    /// Deposited inventory per operator: the leased IMSI range and a cursor.
    inventory: HashMap<u32, (ImsiRange, u64, MnoId)>,
    next_batch: u32,
}

/// An activation code: redeemable for one profile from a deposited batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationCode {
    batch: u32,
}

impl Smdp {
    /// An empty SM-DP+.
    #[must_use]
    pub fn new() -> Self {
        Smdp {
            inventory: HashMap::new(),
            next_batch: 0,
        }
    }

    /// An operator deposits a leased IMSI range, receiving a batch handle
    /// whose activation codes the marketplace can sell.
    pub fn deposit(&mut self, issuer: MnoId, range: ImsiRange) -> ActivationCode {
        let batch = self.next_batch;
        self.next_batch += 1;
        self.inventory.insert(batch, (range, 0, issuer));
        ActivationCode { batch }
    }

    /// Redeem an activation code: downloads the next profile of the batch.
    /// Returns `None` when the leased range is exhausted.
    pub fn redeem(&mut self, code: ActivationCode) -> Option<SimProfile> {
        let (range, cursor, issuer) = self.inventory.get_mut(&code.batch)?;
        let imsi = range.nth(*cursor)?;
        *cursor += 1;
        Some(SimProfile {
            sim_type: SimType::Esim,
            imsi,
            issuer: *issuer,
        })
    }

    /// How many profiles remain in a batch.
    #[must_use]
    pub fn remaining(&self, code: ActivationCode) -> u64 {
        self.inventory
            .get(&code.batch)
            .map(|(range, cursor, _)| range.len - cursor)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::Plmn;

    fn range() -> ImsiRange {
        ImsiRange {
            plmn: Plmn::new(260, 6, 2),
            start: 7_000_000,
            len: 3,
        }
    }

    #[test]
    fn smdp_redeems_sequential_imsis_until_exhausted() {
        let mut smdp = Smdp::new();
        let code = smdp.deposit(MnoId(4), range());
        assert_eq!(smdp.remaining(code), 3);
        let p1 = smdp.redeem(code).unwrap();
        let p2 = smdp.redeem(code).unwrap();
        let p3 = smdp.redeem(code).unwrap();
        assert_eq!(p1.imsi.msin(), 7_000_000);
        assert_eq!(p2.imsi.msin(), 7_000_001);
        assert_eq!(p3.imsi.msin(), 7_000_002);
        assert_eq!(p1.issuer, MnoId(4));
        assert_eq!(p1.sim_type, SimType::Esim);
        assert!(smdp.redeem(code).is_none(), "range exhausted");
        assert_eq!(smdp.remaining(code), 0);
    }

    #[test]
    fn redeemed_profiles_stay_in_leased_range() {
        let mut smdp = Smdp::new();
        let r = range();
        let code = smdp.deposit(MnoId(0), r);
        while let Some(p) = smdp.redeem(code) {
            assert!(r.contains(p.imsi), "IMSI {} outside leased range", p.imsi);
        }
    }
}
