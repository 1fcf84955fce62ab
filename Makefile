# Development gate for OpenARC-rs. `make check` is what CI runs.

CARGO ?= cargo

.PHONY: check fmt lint test doc build paper

check: fmt lint test doc

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

test:
	$(CARGO) test --workspace -q

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

build:
	$(CARGO) build --workspace --release

# Regenerate every table and figure of the paper's evaluation, then the
# ablations (JSON copies land in results/). Performance is measured by
# the separate benchmark/ package, not here.
paper:
	$(CARGO) run --release -p openarc-bench --bin paper
