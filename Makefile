GO ?= go

.PHONY: all build vet test race benchmark clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The gateway is lock-heavy; the race detector gates merges.
race:
	$(GO) test -race ./...

# benchmark/ is its own module, so `go build ./...` above never sees it: vet
# and smoke-test it here so a signature change in internal/ cannot break it
# silently. The measurement itself is `bash benchmark/run.sh`.
benchmark:
	cd benchmark && $(GO) vet . && $(GO) test .

clean:
	$(GO) clean ./...
