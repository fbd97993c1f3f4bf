//! Fixture: `stats-mutation` — raw counter writes vs legal reads/helpers.

impl W {
    fn cheat(&mut self, counts: &[u64]) {
        self.stats.max_load = 99;
        self.stats.exchanges += 1;
        self.stats.per_server_peak.push(3);
    }

    fn legal(&mut self, counts: &[u64]) {
        let _snapshot = self.stats.max_load;
        if self.stats.exchanges == 2 {}
        self.stats.record_round(0, 1, counts);
    }
}
