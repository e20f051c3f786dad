/**
 * @file
 * Runtime-layer tests: syscall protocol packing, the Emterpreter VM
 * (assembler, execution, faults, snapshot/restore), GopherJS int64
 * emulation (property-tested against native int64), and the Emscripten
 * mode matrix (sync vs Emterpreter, fork availability).
 */
#include <gtest/gtest.h>

#include <random>

#include "apps/make/make.h"
#include "apps/registry.h"
#include "core/browsix.h"
#include "jsvm/util.h"
#include "runtime/emvm/assembler.h"
#include "runtime/emvm/vm.h"
#include "runtime/gopher/int64emu.h"
#include "runtime/syscall_proto.h"

using namespace browsix;
using namespace browsix::sys;
using namespace browsix::emvm;
using browsix::rt::Int64;

// ---------- syscall protocol ----------

TEST(Proto, TrapNamesRoundtrip)
{
    for (int trap : {EXIT, FORK, READ, WRITE, OPEN, CLOSE, WAIT4, SPAWN,
                     GETDENTS64, SOCKET, PERSONALITY}) {
        EXPECT_EQ(trapFromName(trapName(trap)), trap);
    }
    EXPECT_EQ(trapFromName("no-such-call"), -1);
}

TEST(Proto, PaperUsesGetdents220)
{
    // Figure 6 implements syscall 220 (getdents64); keep the number.
    EXPECT_EQ(GETDENTS64, 220);
    EXPECT_STREQ(trapName(220), "getdents64");
}

TEST(Proto, StatPackUnpackRoundtrip)
{
    StatX st;
    st.ino = 0x1234567890ull;
    st.mode = S_IFREG_ | 0644;
    st.nlink = 3;
    st.size = 9876543210ull;
    st.atimeUs = 111;
    st.mtimeUs = -5;
    st.ctimeUs = 1ll << 40;
    uint8_t buf[STAT_BYTES];
    packStat(st, buf);
    StatX out = unpackStat(buf);
    EXPECT_EQ(out.ino, st.ino);
    EXPECT_EQ(out.mode, st.mode);
    EXPECT_EQ(out.nlink, st.nlink);
    EXPECT_EQ(out.size, st.size);
    EXPECT_EQ(out.mtimeUs, st.mtimeUs);
    EXPECT_EQ(out.ctimeUs, st.ctimeUs);
    EXPECT_TRUE(out.isFile());
}

TEST(Proto, StatValueRoundtrip)
{
    StatX st;
    st.mode = S_IFDIR_ | 0755;
    st.size = 4096;
    StatX out = statFromValue(statToValue(st));
    EXPECT_TRUE(out.isDir());
    EXPECT_EQ(out.size, 4096u);
}

TEST(Proto, DirentsRoundtripAndAlignment)
{
    std::vector<Dirent> in = {{1, DT_REG, "a"},
                              {2, DT_DIR, "some-longer-name"},
                              {3, DT_LNK, "ln"}};
    auto packed = encodeDirents(in);
    EXPECT_EQ(packed.size() % 4, 0u);
    auto out = decodeDirents(packed.data(), packed.size());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1].name, "some-longer-name");
    EXPECT_EQ(out[1].type, DT_DIR);
    EXPECT_EQ(out[2].ino, 3u);
}

TEST(Proto, WaitStatusHelpers)
{
    EXPECT_TRUE(wifExited(statusFromExitCode(3)));
    EXPECT_EQ(wexitstatus(statusFromExitCode(3)), 3);
    EXPECT_FALSE(wifExited(statusFromSignal(9)));
    EXPECT_EQ(wtermsig(statusFromSignal(9)), 9);
}

// ---------- assembler + VM ----------

namespace {

Image
mustAssemble(const std::string &src)
{
    Image img;
    std::string err;
    EXPECT_TRUE(assemble(src, img, err)) << err;
    return img;
}

int64_t
runToCompletion(Vm &vm)
{
    RunState st = vm.run();
    EXPECT_EQ(st, RunState::Done) << vm.trapMessage();
    return vm.exitCode();
}

} // namespace

TEST(Assembler, RejectsErrorsWithLineNumbers)
{
    Image img;
    std::string err;
    EXPECT_FALSE(assemble(".func f 0 0\n  frobnicate\n.end\n", img, err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_FALSE(assemble(".func f 0 0\n  jmp nowhere\n.end\n", img, err));
    EXPECT_NE(err.find("nowhere"), std::string::npos);
    EXPECT_FALSE(assemble(".func f 0 0\n  push 1\n", img, err))
        << "missing .end";
}

TEST(Assembler, DataDirectivesInitializeMemory)
{
    Image img = mustAssemble(".memory 64\n.data 4 \"AB\\n\"\n"
                             ".func main 0 0\n  push 0\n  halt\n.end\n");
    Vm vm(img);
    ASSERT_TRUE(vm.start("main", {}));
    runToCompletion(vm);
    EXPECT_EQ(vm.memory()[4], 'A');
    EXPECT_EQ(vm.memory()[6], '\n');
}

TEST(Vm, ArithmeticAndControlFlow)
{
    // sum 1..10 = 55
    Image img = mustAssemble(R"(
.func main 0 2
    push 0
    storel 0
    push 1
    storel 1
loop:
    loadl 1
    push 10
    gt
    jnz done
    loadl 0
    loadl 1
    add
    storel 0
    loadl 1
    push 1
    add
    storel 1
    jmp loop
done:
    loadl 0
    halt
.end
)");
    Vm vm(img);
    ASSERT_TRUE(vm.start("main", {}));
    EXPECT_EQ(runToCompletion(vm), 55);
}

TEST(Vm, FunctionCallsPassArgsAndReturnValues)
{
    Image img = mustAssemble(R"(
.func add3 3 3
    loadl 0
    loadl 1
    add
    loadl 2
    add
    ret
.end
.func main 0 0
    push 10
    push 20
    push 12
    call add3
    halt
.end
)");
    Vm vm(img);
    ASSERT_TRUE(vm.start("main", {}));
    EXPECT_EQ(runToCompletion(vm), 42);
}

TEST(Vm, MemoryLoadStoreWidths)
{
    Image img = mustAssemble(R"(
.memory 64
.func main 0 0
    push 8
    push 300
    store32
    push 8
    load32
    push 16
    push -2
    store64
    push 16
    load64
    add
    halt
.end
)");
    Vm vm(img);
    ASSERT_TRUE(vm.start("main", {}));
    EXPECT_EQ(runToCompletion(vm), 298);
}

TEST(Vm, FaultsAreTrappedNotUb)
{
    Image img = mustAssemble(
        ".memory 16\n.func main 0 0\n  push 9999\n  load32\n  halt\n.end\n");
    Vm vm(img);
    ASSERT_TRUE(vm.start("main", {}));
    EXPECT_EQ(vm.run(), RunState::Trapped);
    EXPECT_NE(vm.trapMessage().find("out of bounds"), std::string::npos);
}

TEST(Vm, DivideByZeroTraps)
{
    Image img = mustAssemble(
        ".func main 0 0\n  push 1\n  push 0\n  divs\n  halt\n.end\n");
    Vm vm(img);
    vm.start("main", {});
    EXPECT_EQ(vm.run(), RunState::Trapped);
}

TEST(Vm, StackUnderflowTraps)
{
    Image img = mustAssemble(".func main 0 0\n  add\n  halt\n.end\n");
    Vm vm(img);
    vm.start("main", {});
    EXPECT_EQ(vm.run(), RunState::Trapped);
}

TEST(Vm, SyscallSuspendsAndResumes)
{
    Image img = mustAssemble(R"(
.func main 0 0
    push 20
    syscall 0      ; getpid()
    push 100
    add
    halt
.end
)");
    Vm vm(img);
    vm.start("main", {});
    ASSERT_EQ(vm.run(), RunState::Syscall);
    EXPECT_EQ(vm.pendingTrap(), 20);
    EXPECT_TRUE(vm.pendingArgs().empty());
    vm.resume(7);
    EXPECT_EQ(runToCompletion(vm), 107);
}

TEST(Vm, ImageSerializationRoundtrips)
{
    Image img = mustAssemble(
        ".memory 128\n.data 0 \"xyz\"\n"
        ".func main 0 1\n  push 3\n  halt\n.end\n");
    auto bytes = img.serialize();
    EXPECT_TRUE(Image::isImage(bytes.data(), bytes.size()));
    Image out;
    ASSERT_TRUE(Image::deserialize(bytes, out));
    EXPECT_EQ(out.functions.size(), img.functions.size());
    EXPECT_EQ(out.initData, img.initData);
    Vm vm(out);
    vm.start("main", {});
    EXPECT_EQ(runToCompletion(vm), 3);
}

TEST(Vm, SnapshotRestoresMidSyscallExactly)
{
    // The fork mechanism: snapshot while awaiting a syscall result, then
    // both machines resume with different values (parent pid vs 0).
    Image img = mustAssemble(R"(
.memory 64
.func main 0 1
    push 5
    storel 0
    push 2
    syscall 0      ; fork()
    loadl 0
    add            ; result + 5
    halt
.end
)");
    Vm parent(img);
    parent.start("main", {});
    ASSERT_EQ(parent.run(), RunState::Syscall);
    ASSERT_EQ(parent.pendingTrap(), 2);

    auto snap = parent.snapshot();
    Vm child(img);
    ASSERT_TRUE(Vm::restore(img, snap, child));

    parent.resume(1234);
    child.resume(0);
    EXPECT_EQ(runToCompletion(parent), 1239);
    EXPECT_EQ(runToCompletion(child), 5);
}

TEST(Vm, SnapshotPreservesMemoryWrites)
{
    Image img = mustAssemble(R"(
.memory 64
.func main 0 0
    push 8
    push 77
    store32
    push 20
    syscall 0
    pop
    push 8
    load32
    halt
.end
)");
    Vm vm(img);
    vm.start("main", {});
    ASSERT_EQ(vm.run(), RunState::Syscall);
    auto snap = vm.snapshot();
    Vm restored(img);
    ASSERT_TRUE(Vm::restore(img, snap, restored));
    restored.resume(0);
    EXPECT_EQ(runToCompletion(restored), 77);
}

TEST(Vm, InstructionCountGrowsWithWork)
{
    Image img = mustAssemble(R"(
.func main 1 2
    push 0
    storel 1
loop:
    loadl 1
    loadl 0
    ge
    jnz done
    loadl 1
    push 1
    add
    storel 1
    jmp loop
done:
    push 0
    halt
.end
)");
    Vm small(img), big(img);
    small.start("main", {100});
    big.start("main", {10000});
    runToCompletion(small);
    runToCompletion(big);
    EXPECT_GT(big.instructionsRetired(),
              small.instructionsRetired() * 50);
}

// ---------- Int64 emulation ----------

TEST(Int64Emu, BasicConversions)
{
    for (int64_t v :
         std::vector<int64_t>{0, 1, -1, 42, -42, int64_t{1} << 40,
                              -(int64_t{1} << 40), INT64_MAX,
                              INT64_MIN + 1}) {
        EXPECT_EQ(Int64(v).toInt(), v) << v;
    }
}

TEST(Int64Emu, KnownMultiplications)
{
    EXPECT_EQ((Int64(1000000007) * Int64(998244353)).toInt(),
              1000000007ll * 998244353ll);
    EXPECT_EQ((Int64(-5) * Int64(7)).toInt(), -35);
    EXPECT_EQ((Int64(1) << 63).toInt(), INT64_MIN);
}

TEST(Int64Emu, DivisionTruncatesTowardZero)
{
    EXPECT_EQ((Int64(7) / Int64(2)).toInt(), 3);
    EXPECT_EQ((Int64(-7) / Int64(2)).toInt(), -3);
    EXPECT_EQ((Int64(7) / Int64(-2)).toInt(), -3);
    EXPECT_EQ((Int64(-7) % Int64(3)).toInt(), -1);
}

class Int64Property : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(Int64Property, MatchesNativeInt64)
{
    std::mt19937_64 rng(GetParam());
    for (int i = 0; i < 500; i++) {
        int64_t a = static_cast<int64_t>(rng());
        int64_t b = static_cast<int64_t>(rng());
        // keep shifts in range, divisors nonzero
        int s = static_cast<int>(rng() % 63) + 1;
        if (b == 0)
            b = 1;
        Int64 ea(a), eb(b);
        EXPECT_EQ((ea + eb).toInt(), static_cast<int64_t>(
                                         static_cast<uint64_t>(a) +
                                         static_cast<uint64_t>(b)));
        EXPECT_EQ((ea - eb).toInt(), static_cast<int64_t>(
                                         static_cast<uint64_t>(a) -
                                         static_cast<uint64_t>(b)));
        EXPECT_EQ((ea * eb).toInt(),
                  static_cast<int64_t>(static_cast<uint64_t>(a) *
                                       static_cast<uint64_t>(b)));
        EXPECT_EQ((ea & eb).toInt(), a & b);
        EXPECT_EQ((ea | eb).toInt(), a | b);
        EXPECT_EQ((ea ^ eb).toInt(), a ^ b);
        EXPECT_EQ((ea << s).toInt(),
                  static_cast<int64_t>(static_cast<uint64_t>(a) << s));
        EXPECT_EQ(ea.shrU(s).toInt(),
                  static_cast<int64_t>(static_cast<uint64_t>(a) >> s));
        EXPECT_EQ((ea < eb), a < b);
        EXPECT_EQ((ea == eb), a == b);
        // division: avoid INT64_MIN / -1 UB
        if (!(a == INT64_MIN && b == -1)) {
            EXPECT_EQ((ea / eb).toInt(), a / b) << a << "/" << b;
            EXPECT_EQ((ea % eb).toInt(), a % b) << a << "%" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Int64Property,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---------- Emscripten mode matrix ----------

TEST(EmscriptenModes, ForkWorksUnderEmterpreter)
{
    Browsix bx;
    auto r = bx.runArgv({"/usr/bin/forktest"});
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "hello from child\nhello from parent\n")
        << "wait4 orders parent output after the child's";
}

TEST(EmscriptenModes, ForkWithoutEmterpreterFails)
{
    // §2.2: a program compiled without the Emterpreter that calls fork
    // "will fail at runtime". pdflatex-sync is such a program; drive a
    // fork attempt through make compiled the wrong way.
    Browsix bx;
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "make-miscompiled", apps::RuntimeKind::EmSync, 512,
        apps::makeMain, nullptr});
    bx.rootFs().writeFile(
        "/usr/bin/make-miscompiled",
        apps::ProgramRegistry::instance().bundleFor("make-miscompiled"));
    bx.rootFs().writeFile("/home/Makefile",
                          std::string("t:\n\techo never\n"));
    auto r = bx.run("cd /home && /usr/bin/make-miscompiled");
    EXPECT_NE(r.exitCode(), 0);
    EXPECT_NE(r.err.find("fork"), std::string::npos) << r.err;
}

TEST(EmscriptenModes, VmForkThroughKernelMatchesUnitSemantics)
{
    // End-to-end: the forktest VM image forks through the real kernel
    // twice in a row; pids must differ and output stay deterministic.
    Browsix bx;
    auto r1 = bx.runArgv({"/usr/bin/forktest"});
    auto r2 = bx.runArgv({"/usr/bin/forktest"});
    EXPECT_EQ(r1.out, r2.out);
}

// ---------- Spawn: one executable buffer ----------

namespace {

/** Spawn argv as a root process (inline: the root fs never defers). */
int
spawnInline(Browsix &bx, std::vector<std::string> argv, std::string &out,
            int &status, bool &exited)
{
    int pid = -1;
    bx.kernel().spawnRoot(
        std::move(argv), bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        [](const bfs::Buffer &) {}, [&](int p) { pid = p; });
    return pid;
}

jsvm::BlobRegistry::Data
blobOf(Browsix &bx, int pid)
{
    kernel::Task *t = bx.kernel().task(pid);
    return t ? bx.browser().blobs().resolve(t->blobUrl) : nullptr;
}

} // namespace

TEST(Spawn, LiveProcessesShareTheInterpretersFileBuffer)
{
    // §3.3's file -> Blob -> Worker path moves no executable bytes: both
    // `cat`s (#!/usr/bin/node scripts) boot from the very buffer that
    // holds /usr/bin/node in the filesystem.
    Browsix bx;
    bfs::BufferPtr node;
    bx.fs().readFile("/usr/bin/node", [&](int err, bfs::BufferPtr data) {
        EXPECT_EQ(err, 0);
        node = data;
    });
    ASSERT_NE(node, nullptr);
    std::string out[2];
    int status[2] = {-1, -1};
    bool exited[2] = {false, false};
    for (int i = 0; i < 2; i++) {
        int pid = spawnInline(bx, {"/usr/bin/cat"}, out[i], status[i],
                              exited[i]);
        ASSERT_GT(pid, 0);
        EXPECT_EQ(blobOf(bx, pid).get(), node.get()) << "process " << i;
    }
    ASSERT_TRUE(bx.runUntil([&]() { return exited[0] && exited[1]; }));
    EXPECT_EQ(sys::wexitstatus(status[0]), 0);
    EXPECT_EQ(sys::wexitstatus(status[1]), 0);
}

TEST(Spawn, RewritingAnExecutableSparesRunningTasksAndTheirForks)
{
    // Rewrite /usr/bin/forktest in place after spawning it, before the
    // kernel has handled any of its syscalls: the task's blob keeps the
    // bytes it was spawned from, and its fork boots them too.
    Browsix bx;
    std::string out;
    int status = -1;
    bool exited = false;
    int pid = spawnInline(bx, {"/usr/bin/forktest"}, out, status, exited);
    ASSERT_GT(pid, 0);
    jsvm::BlobRegistry::Data blob = blobOf(bx, pid);
    ASSERT_NE(blob, nullptr);
    const bfs::Buffer original = *blob;

    const bfs::Buffer junk(original.size(), 0xEE);
    bx.fs().open("/usr/bin/forktest", bfs::flags::RDWR, 0,
                 [&](int err, bfs::OpenFilePtr f) {
                     ASSERT_EQ(err, 0);
                     f->pwrite(0, junk.data(), junk.size(),
                               [](int werr, size_t) { EXPECT_EQ(werr, 0); });
                 });
    bfs::Buffer now;
    ASSERT_EQ(bx.fs().readFileSync("/usr/bin/forktest", now), 0);
    EXPECT_EQ(now, junk);
    EXPECT_EQ(blobOf(bx, pid), blob);
    EXPECT_EQ(*blob, original);

    ASSERT_TRUE(bx.runUntil([&]() { return exited; }));
    EXPECT_EQ(sys::wexitstatus(status), 0);
    EXPECT_EQ(out, "hello from child\nhello from parent\n")
        << "the forked child must boot the original image";
}

TEST(EmscriptenModes, PrimesComputesCorrectly)
{
    Browsix bx;
    auto r = bx.runArgv({"/usr/bin/primes"});
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "303\n") << "303 primes below 2000";
}

TEST(TypesetKernel, NativeAndBytecodeAgree)
{
    // The async/sync LaTeX comparison is only fair if both compute paths
    // produce identical results.
    const emvm::Image &img = apps::typesetImage();
    for (int64_t seed : {1ll, 42ll, 123456789ll}) {
        Vm vm(img);
        ASSERT_TRUE(vm.start("typeset", {seed, 5000}));
        RunState st = vm.run();
        ASSERT_EQ(st, RunState::Done);
        EXPECT_EQ(vm.exitCode(), apps::typesetNative(seed, 5000))
            << "seed " << seed;
    }
}

TEST(TypesetKernel, InterpretationIsSlowerThanNative)
{
    const emvm::Image &img = apps::typesetImage();
    int64_t iters = 400000;
    int64_t t0 = jsvm::nowUs();
    apps::typesetNative(7, iters);
    int64_t native_us = jsvm::nowUs() - t0;
    Vm vm(img);
    vm.start("typeset", {7, iters});
    t0 = jsvm::nowUs();
    vm.run();
    int64_t interp_us = jsvm::nowUs() - t0;
    EXPECT_GT(interp_us, native_us * 3)
        << "the Emterpreter tax must be real (native " << native_us
        << "us vs interpreted " << interp_us << "us)";
}
