//! Vehicle sales records (the `VS` term of Equation 2).

/// Sales of one vehicle application in one region and year.
#[derive(Debug)]
pub struct SalesRecord {
    /// Free-text application name (e.g. "excavator").
    pub application: String,
    /// Free-text region name (e.g. "Europe").
    pub region: String,
    /// Calendar year.
    pub year: i32,
    /// Units sold.
    pub units: u64,
}

impl SalesRecord {
    /// Creates a record.
    #[must_use]
    pub fn new(
        application: impl Into<String>,
        region: impl Into<String>,
        year: i32,
        units: u64,
    ) -> Self {
        Self {
            application: application.into(),
            region: region.into(),
            year,
            units,
        }
    }
}

/// A small sales ledger with the filters the PSP financial workflow needs.
#[derive(Debug)]
pub struct SalesLedger {
    records: Vec<SalesRecord>,
}

impl SalesLedger {
    /// Total units sold for an application/region in one year (`VS`).
    #[must_use]
    pub fn units_in_year(&self, application: &str, region: &str, year: i32) -> u64 {
        self.records
            .iter()
            .filter(|r| {
                r.application.eq_ignore_ascii_case(application)
                    && r.region.eq_ignore_ascii_case(region)
                    && r.year == year
            })
            .map(|r| r.units)
            .sum()
    }

    /// The most recent year with data for an application/region.
    #[must_use]
    pub fn latest_year(&self, application: &str, region: &str) -> Option<i32> {
        self.records
            .iter()
            .filter(|r| {
                r.application.eq_ignore_ascii_case(application)
                    && r.region.eq_ignore_ascii_case(region)
            })
            .map(|r| r.year)
            .max()
    }

    /// Previous-year sales (`VS` of "the past year’s vehicle sales trend reports"):
    /// units in the latest available year for the application/region.
    #[must_use]
    pub fn previous_year_sales(&self, application: &str, region: &str) -> Option<u64> {
        let year = self.latest_year(application, region)?;
        Some(self.units_in_year(application, region, year))
    }
}

impl FromIterator<SalesRecord> for SalesLedger {
    fn from_iter<T: IntoIterator<Item = SalesRecord>>(iter: T) -> Self {
        Self {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> SalesLedger {
        vec![
            SalesRecord::new("excavator", "Europe", 2021, 18_000),
            SalesRecord::new("excavator", "Europe", 2022, 20_086),
            SalesRecord::new("excavator", "NorthAmerica", 2022, 26_000),
            SalesRecord::new("passenger car", "Europe", 2022, 9_300_000),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn units_filter_by_all_dimensions() {
        let l = ledger();
        assert_eq!(l.units_in_year("excavator", "Europe", 2022), 20_086);
        assert_eq!(l.units_in_year("excavator", "Europe", 2021), 18_000);
        assert_eq!(l.units_in_year("excavator", "Europe", 2019), 0);
    }

    #[test]
    fn matching_is_case_insensitive() {
        let l = ledger();
        assert_eq!(l.units_in_year("Excavator", "europe", 2022), 20_086);
    }

    #[test]
    fn latest_year_and_previous_year_sales() {
        let l = ledger();
        assert_eq!(l.latest_year("excavator", "Europe"), Some(2022));
        assert_eq!(l.previous_year_sales("excavator", "Europe"), Some(20_086));
        assert_eq!(l.previous_year_sales("tractor", "Europe"), None);
    }

    #[test]
    fn duplicate_rows_accumulate() {
        let extra = SalesRecord::new("excavator", "Europe", 2022, 14);
        let l: SalesLedger = ledger().records.into_iter().chain([extra]).collect();
        assert_eq!(l.units_in_year("excavator", "Europe", 2022), 20_100);
    }

    #[test]
    fn empty_ledger() {
        let l: SalesLedger = std::iter::empty().collect();
        assert!(l.records.is_empty());
        assert_eq!(l.previous_year_sales("x", "y"), None);
    }
}
