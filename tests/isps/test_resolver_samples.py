"""A poisoned resolver's blocklist is a bit mask over its ISP's sorted
DNS master list, drawn exactly as the per-resolver frozenset it
replaced.

:func:`reference_samples` is that frozenset draw, kept here as the
oracle: a fresh copy of each builder's seeded stream, one
``rng.random()`` per master name in sorted order for every poisoned
resolver in build order, as ``repro.isps.builder._sample_blocklist``
draws an HTTP box's sample.
"""

import random

import pytest

from repro.isps.builder import ListSample, MasterList
from repro.isps.profiles import DNS_POISON


def reference_samples(world, isp):
    """The frozenset each poisoned resolver of *isp* drew, in order."""
    deployment = world.isp(isp)
    rng = random.Random(f"isp|{world.seed}|{isp}")
    master = deployment.dns_blocklist
    density = deployment.profile.dns_consistency
    samples = []
    for _ip, service in deployment.resolvers:
        if isinstance(service.config.blocklist, ListSample):
            samples.append(frozenset(
                domain for domain in sorted(master)
                if rng.random() < density))
    return samples


def poisoning_isps(world):
    return [name for name, deployment in sorted(world.isps.items())
            if deployment.profile.mechanism == DNS_POISON]


class TestAgainstTheFrozensetDraw:
    def test_every_poisoned_resolver_of_a_full_world(self, full_world):
        checked = 0
        for isp in poisoning_isps(full_world):
            deployment = full_world.isp(isp)
            master = deployment.dns_blocklist
            samples = [service.config.blocklist
                       for _ip, service in deployment.resolvers
                       if isinstance(service.config.blocklist, ListSample)]
            expected = reference_samples(full_world, isp)
            assert len(samples) == len(expected) > 0
            for sample, reference in zip(samples, expected):
                assert set(sample) == reference
                assert len(sample) == len(reference)
                assert list(sample) == sorted(reference)
                assert sample == reference and sample <= master
                assert all((domain in sample) == (domain in reference)
                           for domain in master)
            checked += len(samples)
        # MTNL's 383 and BSNL's 17 at scale 1.0.
        assert checked == 400

    def test_resolvers_share_one_master(self, full_world):
        for isp in poisoning_isps(full_world):
            masters = {id(service.config.blocklist._master)
                       for _ip, service in full_world.isp(isp).resolvers
                       if isinstance(service.config.blocklist, ListSample)}
            assert len(masters) == 1


class TestListSample:
    MASTER = frozenset({"d.example", "a.example", "c.example", "b.example"})

    def sample(self, *names):
        master = MasterList(self.MASTER)
        return ListSample(master, sum(1 << master.index[name]
                                      for name in names))

    def test_set_behaviour(self):
        sample = self.sample("c.example", "a.example")
        assert list(sample) == ["a.example", "c.example"]
        assert len(sample) == 2 and bool(sample)
        assert "a.example" in sample and "b.example" not in sample
        assert "www.a.example" not in sample and "nope" not in sample
        assert sample == {"a.example", "c.example"}
        assert sample <= self.MASTER and not sample >= self.MASTER
        assert sample & {"a.example", "b.example"} == {"a.example"}

    def test_empty_sample_is_falsy(self):
        assert not self.sample() and len(self.sample()) == 0

    def test_immutable(self):
        sample = self.sample("a.example")
        with pytest.raises(AttributeError):
            sample.add("b.example")
        with pytest.raises(AttributeError):
            sample.extra = 1

    @pytest.mark.parametrize("density", [0.0, 0.3, 0.9, 1.0])
    def test_draws_match_the_frozenset_draw(self, density):
        master = frozenset(f"site{index}.example" for index in range(70))
        ours, theirs = random.Random(5), random.Random(5)
        for _ in range(4):
            sample = MasterList(master).sample(density, ours)
            if density >= 1.0:
                reference = master
            else:
                reference = frozenset(domain for domain in sorted(master)
                                      if theirs.random() < density)
            assert set(sample) == reference
        # The same number of draws left both streams in step.
        assert ours.random() == theirs.random()
