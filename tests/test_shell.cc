/**
 * @file
 * Shell tests: the pure lexer/parser, then a parameterized execution
 * sweep of commands through the full Browsix stack (the terminal case
 * study's substrate, §5.1.2).
 */
#include <gtest/gtest.h>

#include "apps/shell/shell_parse.h"
#include "core/browsix.h"

using namespace browsix;
using namespace browsix::apps::sh;

namespace {

List
mustParse(const std::string &src)
{
    List list;
    std::string err;
    EXPECT_TRUE(parseScript(src, list, err)) << src << ": " << err;
    return list;
}

} // namespace

// ---------- lexer / parser (pure) ----------

TEST(ShellParse, SimpleCommandWords)
{
    List l = mustParse("echo hello world");
    ASSERT_EQ(l.items.size(), 1u);
    const Command &c = l.items[0].first.commands[0];
    ASSERT_EQ(c.words.size(), 3u);
    EXPECT_EQ(c.words[0].raw(), "echo");
    EXPECT_EQ(c.words[2].raw(), "world");
}

TEST(ShellParse, QuotingPreservesSpacesAndKind)
{
    List l = mustParse("echo 'a b' \"c $X\" d\\ e");
    const Command &c = l.items[0].first.commands[0];
    ASSERT_EQ(c.words.size(), 4u);
    EXPECT_EQ(c.words[1].segments[0].quote, Segment::Single);
    EXPECT_EQ(c.words[1].segments[0].text, "a b");
    EXPECT_EQ(c.words[2].segments[0].quote, Segment::Double);
    EXPECT_EQ(c.words[3].raw(), "d e");
}

TEST(ShellParse, PipelineSplitsCommands)
{
    List l = mustParse("cat f | grep x | wc");
    ASSERT_EQ(l.items[0].first.commands.size(), 3u);
}

TEST(ShellParse, OperatorsSequenceAndShortCircuit)
{
    List l = mustParse("a && b || c; d &");
    ASSERT_EQ(l.items.size(), 4u);
    EXPECT_EQ(l.items[0].second, SeqOp::And);
    EXPECT_EQ(l.items[1].second, SeqOp::Or);
    EXPECT_EQ(l.items[2].second, SeqOp::Seq);
    EXPECT_EQ(l.items[3].second, SeqOp::Background);
}

TEST(ShellParse, Redirections)
{
    List l = mustParse("cmd < in > out 2> err");
    const Command &c = l.items[0].first.commands[0];
    ASSERT_EQ(c.redirs.size(), 3u);
    EXPECT_EQ(c.redirs[0].kind, Redirect::In);
    EXPECT_EQ(c.redirs[0].fd, 0);
    EXPECT_EQ(c.redirs[1].kind, Redirect::Out);
    EXPECT_EQ(c.redirs[1].fd, 1);
    EXPECT_EQ(c.redirs[2].kind, Redirect::Out);
    EXPECT_EQ(c.redirs[2].fd, 2);
    EXPECT_EQ(c.redirs[2].target.raw(), "err");
}

TEST(ShellParse, DupRedirect)
{
    List l = mustParse("cmd 2>&1");
    const Command &c = l.items[0].first.commands[0];
    ASSERT_EQ(c.redirs.size(), 1u);
    EXPECT_EQ(c.redirs[0].kind, Redirect::DupOut);
    EXPECT_EQ(c.redirs[0].fd, 2);
    EXPECT_EQ(c.redirs[0].dupFd, 1);
}

TEST(ShellParse, AppendRedirect)
{
    List l = mustParse("echo x >> log");
    EXPECT_EQ(l.items[0].first.commands[0].redirs[0].kind,
              Redirect::Append);
}

TEST(ShellParse, AssignmentsBeforeWords)
{
    List l = mustParse("FOO=bar BAZ=1 cmd arg");
    const Command &c = l.items[0].first.commands[0];
    ASSERT_EQ(c.assigns.size(), 2u);
    EXPECT_EQ(c.assigns[0].first, "FOO");
    EXPECT_EQ(c.assigns[0].second.raw(), "bar");
    ASSERT_EQ(c.words.size(), 2u);
}

TEST(ShellParse, EqualsAfterFirstWordIsNotAssignment)
{
    List l = mustParse("echo a=b");
    const Command &c = l.items[0].first.commands[0];
    EXPECT_TRUE(c.assigns.empty());
    ASSERT_EQ(c.words.size(), 2u);
    EXPECT_EQ(c.words[1].raw(), "a=b");
}

TEST(ShellParse, SubshellGrouping)
{
    List l = mustParse("(cd /tmp; pwd) > out");
    const Command &c = l.items[0].first.commands[0];
    ASSERT_NE(c.subshell, nullptr);
    EXPECT_EQ(c.subshell->items.size(), 2u);
    ASSERT_EQ(c.redirs.size(), 1u);
}

TEST(ShellParse, CommentsAndBlankLines)
{
    List l = mustParse("# a comment\n\necho ok # trailing\n");
    ASSERT_EQ(l.items.size(), 1u);
    EXPECT_EQ(l.items[0].first.commands[0].words.size(), 2u);
}

TEST(ShellParse, SyntaxErrorsAreReported)
{
    List list;
    std::string err;
    EXPECT_FALSE(parseScript("echo 'unterminated", list, err));
    EXPECT_FALSE(parseScript("cmd >", list, err));
    EXPECT_FALSE(parseScript("(a; b", list, err));
    EXPECT_FALSE(parseScript("| cmd", list, err));
}

TEST(ShellParse, GlobMatcher)
{
    EXPECT_TRUE(globMatch("*.txt", "a.txt"));
    EXPECT_TRUE(globMatch("*.txt", ".txt"));
    EXPECT_FALSE(globMatch("*.txt", "a.txt.bak"));
    EXPECT_TRUE(globMatch("a?c", "abc"));
    EXPECT_FALSE(globMatch("a?c", "ac"));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("a*b*c", "aXXbYYc"));
    EXPECT_FALSE(globMatch("a*b*c", "aXXcYYb"));
}

// ---------- execution sweep (full stack) ----------

struct ShellCase
{
    const char *name;
    const char *cmd;
    const char *stdin_data;
    const char *want_out;
    int want_code;
};

class ShellExec : public ::testing::TestWithParam<ShellCase>
{
};

TEST_P(ShellExec, ProducesExpectedOutput)
{
    const ShellCase &tc = GetParam();
    Browsix bx;
    bx.rootFs().writeFile("/data/lines.txt",
                          std::string("banana\napple\ncherry\n"));
    bx.rootFs().writeFile("/data/nums.txt", std::string("3\n1\n2\n"));
    auto r = bx.run(tc.cmd, 30000, tc.stdin_data);
    EXPECT_TRUE(r.ok) << tc.cmd;
    EXPECT_EQ(r.exitCode(), tc.want_code) << tc.cmd << "\nerr: " << r.err;
    EXPECT_EQ(r.out, tc.want_out) << tc.cmd;
}

INSTANTIATE_TEST_SUITE_P(
    Commands, ShellExec,
    ::testing::Values(
        ShellCase{"echo", "echo hi there", "", "hi there\n", 0},
        ShellCase{"echo_n", "echo -n x", "", "x", 0},
        ShellCase{"quoted", "echo 'a  b'", "", "a  b\n", 0},
        ShellCase{"var", "X=5; echo $X", "", "5\n", 0},
        ShellCase{"var_braces", "X=ab; echo ${X}c", "", "abc\n", 0},
        ShellCase{"var_in_dquotes", "X=v; echo \"[$X]\"", "", "[v]\n", 0},
        ShellCase{"var_not_in_squotes", "X=v; echo '$X'", "", "$X\n", 0},
        ShellCase{"status_var", "false; echo $?", "", "1\n", 0},
        ShellCase{"and_ok", "true && echo yes", "", "yes\n", 0},
        ShellCase{"and_skip", "false && echo no; echo done", "", "done\n",
                  0},
        ShellCase{"or_taken", "false || echo rescued", "", "rescued\n", 0},
        ShellCase{"or_skipped", "true || echo no", "", "", 0},
        ShellCase{"pipe2", "echo a b c | wc", "", "1 3 6\n", 0},
        ShellCase{"pipe3", "cat /data/lines.txt | sort | head -n 1", "",
                  "apple\n", 0},
        ShellCase{"sort_r", "sort -r /data/lines.txt", "",
                  "cherry\nbanana\napple\n", 0},
        ShellCase{"sort_n", "sort -n /data/nums.txt", "", "1\n2\n3\n", 0},
        ShellCase{"grep", "grep an /data/lines.txt", "", "banana\n", 0},
        ShellCase{"grep_v", "grep -v an /data/lines.txt", "",
                  "apple\ncherry\n", 0},
        ShellCase{"grep_miss", "grep zzz /data/lines.txt", "", "", 1},
        // grep's two matchers (literal substring search, std::regex)
        // must select the same lines std::regex alone would.
        ShellCase{"grep_literal_stdin", "grep err", "ok 1\nerr 2\nerror 3\n",
                  "err 2\nerror 3\n", 0},
        ShellCase{"grep_literal_dash_slash", "grep a-b/c",
                  "x a-b/c y\na-b\nb/c\n", "x a-b/c y\n", 0},
        ShellCase{"grep_re_anchor_start", "grep '^FOO='",
                  "FOO=1\nXFOO=2\nFOO\nFOO=\n", "FOO=1\nFOO=\n", 0},
        ShellCase{"grep_re_dot", "grep a.c", "abc\nac\na.c\nxaxcx\n",
                  "abc\na.c\nxaxcx\n", 0},
        ShellCase{"grep_re_alternation", "grep 'b|z'", "abc\nxyz\nmno\n",
                  "abc\nxyz\n", 0},
        ShellCase{"grep_re_anchor_end", "grep 'an$'", "pan\npanda\nan\n",
                  "pan\nan\n", 0},
        ShellCase{"grep_v_re", "grep -v '^a' /data/lines.txt", "",
                  "banana\ncherry\n", 0},
        ShellCase{"grep_empty_pattern", "grep ''", "a\n\nb\n", "a\n\nb\n",
                  0},
        ShellCase{"grep_no_final_newline", "grep an", "banana\nmango",
                  "banana\nmango\n", 0},
        ShellCase{"grep_v_no_final_newline", "grep -v an", "banana\nkiwi",
                  "kiwi\n", 0},
        ShellCase{"stdin_pipe", "sort", "b\na\n", "a\nb\n", 0},
        ShellCase{"tail", "tail -n 2 /data/lines.txt", "",
                  "apple\ncherry\n", 0},
        ShellCase{"seq_xargs", "seq 3 | xargs echo", "", "1 2 3\n", 0},
        ShellCase{"tee", "echo t | tee /tmp/t1 /tmp/t2 && cat /tmp/t1",
                  "", "t\nt\n", 0},
        ShellCase{"subst", "echo $(echo inner)", "", "inner\n", 0},
        ShellCase{"subst_nested", "echo $(echo $(echo deep))", "",
                  "deep\n", 0},
        ShellCase{"test_eq", "test a = a && echo same", "", "same\n", 0},
        ShellCase{"test_f", "[ -f /data/lines.txt ] && echo file", "",
                  "file\n", 0},
        ShellCase{"test_d", "[ -d /data ] && echo dir", "", "dir\n", 0},
        ShellCase{"cd_pwd", "cd /data && pwd", "", "/data\n", 0},
        ShellCase{"subshell_cd", "(cd /data); pwd", "", "/\n", 0},
        ShellCase{"exported_env",
                  "export GREETING=hello; env | grep GREETING", "",
                  "GREETING=hello\n", 0},
        ShellCase{"cmd_env_prefix", "FOO=bar env | grep '^FOO='", "",
                  "FOO=bar\n", 0},
        ShellCase{"not_found", "definitely-not-a-command", "", "", 127},
        ShellCase{"exit_code", "exit 7", "", "", 7},
        ShellCase{"cp_cat",
                  "cp /data/lines.txt /tmp/c && head -n 1 /tmp/c", "",
                  "banana\n", 0},
        ShellCase{"mkdir_ls", "mkdir /tmp/nd && ls /tmp", "", "nd\n", 0},
        ShellCase{"touch_rm",
                  "touch /tmp/tf && rm /tmp/tf && ls /tmp", "", "", 0},
        ShellCase{"glob", "cd /data && echo *.txt", "",
                  "lines.txt nums.txt\n", 0},
        ShellCase{"glob_nomatch", "cd /data && echo *.xyz", "",
                  "*.xyz\n", 0},
        ShellCase{"background_wait",
                  "echo bg > /tmp/bg & wait; cat /tmp/bg", "", "bg\n", 0}),
    [](const ::testing::TestParamInfo<ShellCase> &info) {
        return info.param.name;
    });

TEST(ShellScripts, RunsScriptFileWithArgs)
{
    Browsix bx;
    bx.rootFs().writeFile("/tmp/s.sh",
                          std::string("#!/bin/sh\necho args:$#\n"
                                      "echo first:$1\necho name:$0\n"));
    auto r = bx.run("/bin/sh /tmp/s.sh alpha beta");
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "args:2\nfirst:alpha\nname:/tmp/s.sh\n");
}

TEST(ShellScripts, ShebangScriptRunsDirectly)
{
    Browsix bx;
    bx.rootFs().writeFile("/usr/bin/greet",
                          std::string("#!/bin/sh\necho greetings $1\n"));
    auto r = bx.run("greet world");
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "greetings world\n");
}

TEST(ShellScripts, ShiftConsumesPositionals)
{
    Browsix bx;
    bx.rootFs().writeFile("/tmp/s.sh",
                          std::string("echo $1; shift; echo $1\n"));
    auto r = bx.run("/bin/sh /tmp/s.sh a b");
    EXPECT_EQ(r.out, "a\nb\n");
}

TEST(ShellScripts, PipelineOfUtilitiesLikeThePaper)
{
    // §5.1.2's example: cat file.txt | grep apple > apples.txt
    Browsix bx;
    bx.rootFs().writeFile(
        "/home/file.txt",
        std::string("apple pie\nbanana split\napple sauce\n"));
    auto r = bx.run(
        "cd /home && cat file.txt | grep apple > apples.txt && "
        "wc apples.txt");
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "2 4 22 apples.txt\n");
}
