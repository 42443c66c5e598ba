GO ?= go

.PHONY: all build vet fmt test race check bench tables

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate: the same stages CI runs (build, vet, gofmt, the
# benchmark module, race tests, fault matrix, warm-cache, delta-skip
# determinism, large corpus, allocation gate).
check:
	./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

tables:
	$(GO) run ./cmd/icptables -table all
