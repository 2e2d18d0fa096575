# Developer entry points. CI runs the same commands — see
# .github/workflows/ci.yml — so a green `make check` locally is a green
# lint+test lane remotely.

GO ?= go

.PHONY: build vet lint test race check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo's own invariant suite (DESIGN.md §11): oracle purity, hot-path
# allocation sources, replay determinism, context/error discipline, and
# (in ./internal/lint's tests) the exports gate, no exported function under
# internal/ that only tests call, the config-field gate, no exported
# struct field under internal/ that only tests set, and the channel-config
# gate (TestChannelConfigIsSimConfig), no pool, observer, fault injector or
# far-field plan in an exported struct under internal/ but sim.Config. The
# benchmark (cmd/bench) is a module of its own that `./...` does not enter,
# so its analyzers and tests run here too. Offline and cached; a clean tree
# finishes in seconds. gofmt gates the whole tree, cmd/bench included.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) run ./cmd/sinrlint ./...
	$(GO) test -count=1 ./internal/lint/...
	$(GO) run ./cmd/sinrlint -C cmd/bench ./...
	cd cmd/bench && $(GO) test ./...

test:
	$(GO) test -short ./...

race:
	GORACE=halt_on_error=1 $(GO) test -race -short ./...

check: build vet lint test
